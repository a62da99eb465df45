//! The blanket graph simulator: **any** [`RoutingTopology`] runs on the
//! generic engine with zero per-topology event code.
//!
//! PR 4 proved the engine/topology split with a hand-written ring spec;
//! this module closes the loop. [`GraphSpec`] is one [`EngineSpec`]
//! parameterised over the routing trait: the packet is a 32-byte record
//! (birth, destination, and the recovery/stretch state riding in one
//! headroom block), the greedy step is the trait's `next_arc`, and the
//! packed arc word is the arc's head node. Adding a topology is now
//! exactly the trait impl — the ring, the torus (`k`-ary `d`-cube), the
//! de Bruijn graph and the generated sparse topologies
//! (`hyperroute-sparse`) all route through this one spec, and the ring
//! replays its former hand-written spec **draw for draw** (its corpus
//! baselines are byte-identical across the port).
//!
//! The sparse topologies relax the greedy contract: `next_arc` may
//! return `None` away from the destination when metric greedy stalls.
//! The spec maps that to the route-outcome taxonomy `SUCCESS |
//! LOCAL_MINIMUM | DEAD_END` (tallied in [`OutcomeExt`]) and — when the
//! fault spec selects [`FaultFallback::Escape`] — runs a GOAFR-style
//! best-neighbour escape with a per-packet TTL instead of dropping.
//!
//! On top of the blanket spec sit the two workload extensions the
//! ROADMAP's related-work directions call for:
//!
//! * **Arc-fault masks** (Angel et al., *Routing Complexity of Faulty
//!   Networks*): a seeded or explicit set of dead arcs, optionally grown
//!   mid-run by a seeded fault-arrival process
//!   ([`FaultSpec::dynamics`](crate::config::FaultSpec)). When a packet's
//!   greedy arc is dead, the [`FaultFallback`] hook picks one of four
//!   recoveries — `Drop`, `Detour` (first live strict-progress arc),
//!   `Retry` (paid deflections onto any live arc, bounded by a per-packet
//!   budget carried in the packet itself), or `Multipath` (the
//!   topology's ranked alternate arcs) — see the crate docs for the
//!   worked four-way example. Drops are first-class: the engine keeps
//!   `generated == delivered + dropped` exact, and the report's
//!   [`GraphExt`] carries the split.
//! * **Skewed destination laws**: uniform, Eq.-(1) bit-flips (for the
//!   faulty hypercube), an arbitrary weighted-node pmf, and Papillon's
//!   power-law ring offsets — see [`GraphDestination`].

use crate::config::{FaultArrivals, FaultFallback, FaultMode, FaultSpec};
use crate::engine::{Advance, ArcChoice, Engine, EngineCfg, EnginePacket, EngineSpec, Spawn};
use crate::metrics::{MetricsCollector, ShardedArcTally};
use crate::observe::{NullObserver, Observer};
use crate::packet::sample_flip_mask;
use crate::scenario::{GraphExt, OutcomeExt, Report, ReportExt, Scenario, StretchExt};
use hyperroute_desim::{splitmix64, SimRng};
use hyperroute_topology::RoutingTopology;

/// Sticky "ever escaped" bit of [`GraphPacket::state`] — survives escape
/// exit so delivery can count the packet as recovered.
const ESCAPE_STICKY: u32 = 1 << 31;

/// Low 31 bits of [`GraphPacket::state`]: `d_entry + 1` while the packet
/// is in escape mode (0 = routing greedily).
const ESCAPE_DEPTH: u32 = ESCAPE_STICKY - 1;

/// An in-flight packet of the blanket spec: birth time, absolute
/// destination node, and the recovery/stretch state — previous node,
/// escape word, birth distance, hops taken, and paid deflections spent.
/// The per-packet state of the `Retry`/`Multipath`/`Escape` fallbacks
/// rides in one extra 16-byte headroom block (sst-macro packs its PAR
/// retry header the same way), so the packet is four words. Its current
/// node is implied by the arc queue holding it.
#[derive(Clone, Copy, Debug)]
pub struct GraphPacket {
    born: f64,
    dest: u32,
    /// Node this packet left on its previous hop (`u32::MAX` at birth) —
    /// the escape fallback avoids bouncing straight back across the arc
    /// it arrived on unless that is the only live option.
    prev: u32,
    /// Escape word: [`ESCAPE_STICKY`] is the sticky "ever escaped" flag,
    /// the [`ESCAPE_DEPTH`] bits hold the quantised entry distance plus
    /// one while escaping (0 = plain greedy).
    state: u32,
    /// Quantised `distance(source, dest)` at birth — the stretch
    /// denominator. Relative to the topology's distance function: exact
    /// hops for the dense topologies, the quantised embedding metric for
    /// the sparse ones.
    dist0: u32,
    /// Engine-assigned trace id (birth-sequence number), stamped by the
    /// engine at generation; rides in what used to be padding.
    trace: u32,
    hops: u16,
    tries: u16,
}

impl EnginePacket for GraphPacket {
    #[inline]
    fn born(&self) -> f64 {
        self.born
    }

    #[inline]
    fn set_trace_id(&mut self, id: u32) {
        self.trace = id;
    }

    #[inline]
    fn trace_id(&self) -> u32 {
        self.trace
    }

    #[inline]
    fn deflections(&self) -> u16 {
        self.tries
    }
}

/// Destination law of a [`GraphSpec`] — the lowered, sampler-ready form
/// of [`DestinationSpec`](crate::config::DestinationSpec).
#[derive(Clone, Debug)]
pub enum GraphDestination {
    /// Uniform over all nodes (destination = origin self-delivers).
    Uniform,
    /// Eq. (1) bit-flips: destination = origin ⊕ mask with each of `dim`
    /// bits flipped independently with probability `p` (the faulty
    /// hypercube's law).
    FlipMask {
        /// Word width (the hypercube dimension).
        dim: usize,
        /// Per-bit flip probability.
        p: f64,
    },
    /// Inverse-CDF sampling over absolute destination nodes.
    NodeCdf(Vec<f64>),
    /// Inverse-CDF sampling over clockwise ring offsets `1..n`
    /// (translation-invariant; never self-destined): destination =
    /// `(origin + 1 + index) mod n`.
    OffsetCdf(Vec<f64>),
    /// The faulty butterfly's law: from source row `x` (a level-0 node
    /// id) route to the level-`d` node of row `x ⊕ mask` with each of
    /// `dim` mask bits flipped independently with probability `p` — the
    /// Eq. (1) bit-flip law lifted onto the level-major butterfly
    /// encoding. Never self-delivers (source and destination sit on
    /// different levels).
    RowFlip {
        /// Butterfly dimension `d` (row width and destination level).
        dim: usize,
        /// Per-bit flip probability.
        p: f64,
    },
    /// Uniform over the first `count` node ids — the fat tree's law
    /// (destinations are the leaves, node ids `0..2^L`; destination =
    /// origin self-delivers).
    LeafUniform(
        /// Number of leaves.
        usize,
    ),
}

impl GraphDestination {
    /// Lower a weighted-node pmf (entries pre-validated by the scenario
    /// layer) into its sampling CDF.
    pub fn from_node_pmf(pmf: &[f64]) -> GraphDestination {
        GraphDestination::NodeCdf(cdf_of(pmf))
    }

    /// Lower a Papillon power-law over clockwise offsets `ℓ ∈ 1..n`
    /// (`P(ℓ) ∝ ℓ^-alpha`) into its sampling CDF.
    pub fn ring_power_law(nodes: usize, alpha: f64) -> GraphDestination {
        let weights: Vec<f64> = (1..nodes).map(|l| (l as f64).powf(-alpha)).collect();
        let total: f64 = weights.iter().sum();
        GraphDestination::OffsetCdf(cdf_of_scaled(&weights, total))
    }
}

fn cdf_of(pmf: &[f64]) -> Vec<f64> {
    cdf_of_scaled(pmf, 1.0)
}

fn cdf_of_scaled(weights: &[f64], total: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = weights
        .iter()
        .map(|&w| {
            acc += w / total;
            acc
        })
        .collect();
    // Guard the final bucket against rounding, like `MaskSampler`.
    *cdf.last_mut().expect("nonempty pmf") = 1.0;
    cdf
}

/// Paid (non-progress) deflections a `Multipath` packet may spend before
/// it drops — a termination backstop, not a tuning knob: ranked
/// alternates regress by a bounded stretch, so honest recoveries use a
/// handful. Mirrors `Retry`'s explicit per-packet budget.
const MULTIPATH_DEFLECTION_CAP: u16 = 64;

/// The realised dead-arc set, the adjacency index the detour-style
/// fallbacks scan, and the pre-drawn dynamic fault-arrival schedule.
/// The mask and schedule are functions of the fault seeds alone, so a
/// rerun with the same seeds sees the same dead arcs at every instant.
struct FaultState {
    dead: Vec<bool>,
    dead_count: u64,
    fallback: FaultFallback,
    /// CSR adjacency over dense arc indices, grouped by tail node — the
    /// deterministic scan order of [`FaultFallback::Detour`] and
    /// [`FaultFallback::Retry`].
    out_start: Vec<u32>,
    out_arcs: Vec<u32>,
    /// Dynamic arc deaths `(time, arc)` in time order, pre-drawn from the
    /// dedicated fault-arrival RNG so the pattern is a function of the
    /// arrival seed alone; applied lazily as simulation time passes.
    schedule: Vec<(f64, u32)>,
    cursor: usize,
    /// Scratch for [`RoutingTopology::alternate_arcs`] enumerations.
    alt_buf: Vec<usize>,
}

impl FaultState {
    fn build<T: RoutingTopology>(topo: &T, spec: &FaultSpec, horizon: f64) -> FaultState {
        let num_arcs = topo.num_arcs();
        let mut dead = vec![false; num_arcs];
        match &spec.mode {
            FaultMode::Seeded { fraction, seed } => {
                let kill = ((fraction * num_arcs as f64).round() as usize).min(num_arcs);
                // Partial Fisher–Yates over a dedicated RNG: the fault
                // pattern is a function of the fault seed alone, not the
                // run seed.
                let mut rng = SimRng::new(*seed);
                let mut idx: Vec<u32> = (0..num_arcs as u32).collect();
                for i in 0..kill {
                    let j = i + rng.below(num_arcs - i);
                    idx.swap(i, j);
                    dead[idx[i] as usize] = true;
                }
            }
            FaultMode::Explicit { arcs } => {
                for &arc in arcs {
                    dead[arc] = true;
                }
            }
        }
        // Dynamic deaths: exponential interarrivals up to the generation
        // horizon, each killing a uniformly-chosen arc (re-killing a dead
        // arc is an idempotent no-op, so the effective rate tapers).
        let schedule = match spec.dynamics {
            Some(FaultArrivals { rate, seed }) if rate > 0.0 => {
                let mut rng = SimRng::new(seed);
                let mut t = 0.0;
                let mut events = Vec::new();
                loop {
                    t += rng.exp(rate);
                    if t >= horizon {
                        break;
                    }
                    events.push((t, rng.below(num_arcs) as u32));
                }
                events
            }
            _ => Vec::new(),
        };
        // Counting-sort CSR of arcs by tail node (most topologies already
        // enumerate node-major, but the trait does not promise it). Only
        // the out-arc-scanning fallbacks (Detour, Retry, Escape) ever
        // read it; Drop and Multipath runs skip the build — two full arc
        // passes and ~8 bytes/arc on large topologies. Topologies whose
        // arc indices are already tail-grouped (`out_arc_range`, i.e. the
        // sparse CSR graphs) skip it too: at 10⁷ arcs the duplicate index
        // would double the adjacency footprint for nothing.
        let scans_csr = matches!(
            spec.fallback,
            FaultFallback::Detour | FaultFallback::Retry { .. } | FaultFallback::Escape { .. }
        ) && topo.out_arc_range(0).is_none();
        let (out_start, out_arcs) = if scans_csr {
            let nodes = topo.num_nodes();
            let mut out_start = vec![0u32; nodes + 1];
            for arc in 0..num_arcs {
                out_start[topo.arc_tail(arc) as usize + 1] += 1;
            }
            for i in 0..nodes {
                out_start[i + 1] += out_start[i];
            }
            let mut cursor = out_start.clone();
            let mut out_arcs = vec![0u32; num_arcs];
            for arc in 0..num_arcs {
                let tail = topo.arc_tail(arc) as usize;
                out_arcs[cursor[tail] as usize] = arc as u32;
                cursor[tail] += 1;
            }
            (out_start, out_arcs)
        } else {
            (Vec::new(), Vec::new())
        };
        FaultState {
            dead_count: dead.iter().filter(|&&d| d).count() as u64,
            dead,
            fallback: spec.fallback,
            out_start,
            out_arcs,
            schedule,
            cursor: 0,
            alt_buf: Vec::new(),
        }
    }

    /// Apply every scheduled arc death at or before `t`. Arcs only ever
    /// die (never revive), so the strict-progress termination arguments
    /// of the fallbacks are unaffected by dynamics.
    fn apply_until(&mut self, t: f64) {
        while let Some(&(when, arc)) = self.schedule.get(self.cursor) {
            if when > t {
                break;
            }
            self.cursor += 1;
            if !self.dead[arc as usize] {
                self.dead[arc as usize] = true;
                self.dead_count += 1;
            }
        }
    }

    /// Visit `node`'s outgoing arcs in dense index order, stopping when
    /// `f` returns `true` — through the topology's own tail-grouped arc
    /// ranges when it has them, else through the counting-sort index
    /// built at construction.
    #[inline]
    fn scan_out<T: RoutingTopology>(&self, topo: &T, node: u64, mut f: impl FnMut(usize) -> bool) {
        if let Some(range) = topo.out_arc_range(node) {
            for a in range {
                if f(a) {
                    return;
                }
            }
        } else {
            let range =
                self.out_start[node as usize] as usize..self.out_start[node as usize + 1] as usize;
            for &a in &self.out_arcs[range] {
                if f(a as usize) {
                    return;
                }
            }
        }
    }

    /// First live outgoing arc of `node` (dense index order) whose head
    /// is strictly closer to `dest`, or `None` (→ drop).
    fn detour<T: RoutingTopology>(&self, topo: &T, node: u64, dest: u64) -> Option<usize> {
        let here = topo.distance(node, dest);
        let mut found = None;
        self.scan_out(topo, node, |a| {
            if !self.dead[a] && topo.distance(topo.arc_head(a), dest) < here {
                found = Some(a);
                true
            } else {
                false
            }
        });
        found
    }

    /// `Retry`: a free detour when one exists; otherwise spend one unit
    /// of the packet's budget on **any** live arc out of the node —
    /// dense CSR order first, then the topology's ranked alternates
    /// (which reach arcs whose tail differs from `node`, like the
    /// butterfly's level-`d` wrap back into a fresh pass). Returns the
    /// arc and whether it was paid, or `None` (→ drop).
    fn retry<T: RoutingTopology>(
        &mut self,
        topo: &T,
        node: u64,
        dest: u64,
        tries: u16,
        budget: u16,
    ) -> Option<(usize, bool)> {
        if let Some(live) = self.detour(topo, node, dest) {
            return Some((live, false));
        }
        if tries >= budget {
            return None;
        }
        let mut any = None;
        self.scan_out(topo, node, |a| {
            if !self.dead[a] {
                any = Some(a);
                true
            } else {
                false
            }
        });
        if let Some(any) = any {
            return Some((any, true));
        }
        self.alt_buf.clear();
        topo.alternate_arcs(node, dest, &mut self.alt_buf);
        self.alt_buf
            .iter()
            .find(|&&a| !self.dead[a])
            .map(|&a| (a, true))
    }

    /// `Multipath`: the first live arc of the topology's ranked
    /// alternates — free when it makes strict progress, else one of the
    /// packet's capped paid deflections. Returns the arc and whether it
    /// was paid, or `None` (→ drop).
    fn multipath<T: RoutingTopology>(
        &mut self,
        topo: &T,
        node: u64,
        dest: u64,
        tries: u16,
    ) -> Option<(usize, bool)> {
        self.alt_buf.clear();
        topo.alternate_arcs(node, dest, &mut self.alt_buf);
        let here = topo.distance(node, dest);
        for &alt in &self.alt_buf {
            if self.dead[alt] {
                continue;
            }
            if topo.distance(topo.arc_head(alt), dest) < here {
                return Some((alt, false));
            }
            if tries < MULTIPATH_DEFLECTION_CAP {
                return Some((alt, true));
            }
        }
        None
    }

    /// `Escape`: the live out-arc whose head is closest to `dest` even
    /// when that regresses (GOAFR's last-resort step), avoiding the node
    /// the packet just came from unless it is the only live option.
    /// Equidistant candidates break by a per-packet splitmix hash
    /// (`salt` mixes the packet's trace id with its paid-hop count), so
    /// stuck packets revisiting a plateau spread over different
    /// neighbours instead of all herding down the lowest arc index.
    /// The hash touches no shared RNG stream, so the walk is a pure
    /// function of packet state: the order in which other packets'
    /// events interleave cannot change it. Returns the arc and its head's
    /// quantised distance, or `None` when every out-arc is dead (a dead
    /// end). The caller decides paid-vs-free against the TTL.
    fn escape<T: RoutingTopology>(
        &self,
        topo: &T,
        node: u64,
        dest: u64,
        prev: u32,
        salt: u64,
    ) -> Option<(usize, usize)> {
        let mut best: Option<(usize, u64, usize)> = None;
        let mut back: Option<(usize, u64, usize)> = None;
        self.scan_out(topo, node, |a| {
            if !self.dead[a] {
                let head = topo.arc_head(a);
                let d = topo.distance(head, dest);
                let h = splitmix64(salt ^ a as u64);
                let slot = if head == prev as u64 {
                    &mut back
                } else {
                    &mut best
                };
                if slot.is_none_or(|(bd, bh, _)| d < bd || (d == bd && h < bh)) {
                    *slot = Some((d, h, a));
                }
            }
            false
        });
        best.or(back).map(|(d, _, a)| (a, d))
    }
}

/// Per-packet escape tie-break salt: the packet's trace id (its unique
/// birth-sequence number) mixed with the paid hops spent so far, so two
/// stuck packets — or one packet re-crossing the same plateau after
/// paying another hop — rank equidistant neighbours differently.
#[inline]
fn escape_salt(pkt: &GraphPacket) -> u64 {
    splitmix64((pkt.trace as u64) ^ ((pkt.tries as u64) << 32))
}

/// Whether `node` has no live outgoing arc at all — the `DEAD_END`
/// outcome. Answerable only when some out-arc index exists (the
/// topology's own ranges or the fault CSR); otherwise conservatively
/// `false` (the drop counts as a local minimum).
fn no_live_out<T: RoutingTopology>(faults: Option<&FaultState>, topo: &T, node: u64) -> bool {
    if let Some(range) = topo.out_arc_range(node) {
        match faults {
            Some(f) => range.into_iter().all(|a| f.dead[a]),
            None => range.is_empty(),
        }
    } else if let Some(f) = faults {
        if f.out_start.is_empty() {
            return false;
        }
        let range = f.out_start[node as usize] as usize..f.out_start[node as usize + 1] as usize;
        f.out_arcs[range].iter().all(|&a| f.dead[a as usize])
    } else {
        false
    }
}

/// In-window route-outcome tallies (the `SUCCESS | LOCAL_MINIMUM |
/// DEAD_END` taxonomy; success is the collector's delivered count).
#[derive(Default)]
struct OutcomeTally {
    /// Drops at a node that still had a live out-arc (metric local
    /// minimum, or an exhausted escape TTL).
    local_minimum: u64,
    /// Drops at a node with no live out-arc at all.
    dead_end: u64,
    /// Deliveries that passed through escape mode at least once.
    recovered: u64,
    /// Paid escape hops summed over those recovered deliveries.
    escape_hops: u64,
}

/// In-window stretch tallies over delivered packets.
#[derive(Default)]
struct StretchTally {
    delivered: u64,
    /// Sum of paid deflections (`pkt.tries`) over deliveries.
    deflections: u64,
    /// Deliveries with at least one paid deflection.
    deflected: u64,
    /// Sum of `hops / max(dist0, 1)` over all deliveries.
    stretch_sum: f64,
    /// Same ratio, deflection-free deliveries only.
    clean_sum: f64,
    /// Same ratio, deflected deliveries only.
    deflected_sum: f64,
    /// Sum of `hops - dist0` (signed: long-range links can beat the
    /// lattice metric, so the excess can be negative on a small world).
    excess_sum: i64,
}

/// The blanket per-topology half of the generic engine: routing delegated
/// to `T`'s [`RoutingTopology`] impl, destination law and fault mask as
/// data.
pub struct GraphSpec<T: RoutingTopology> {
    topo: T,
    dest: GraphDestination,
    faults: Option<FaultState>,
    hint: f64,
    /// In-window packet arrivals per arc (feeds the per-direction ring
    /// rates and the [`GraphExt`] rate summary). Saturating counters
    /// sharded by node range: untouched ranges of a ≥10⁷-arc graph
    /// allocate nothing, and a window long enough to overflow one arc
    /// 4 × 10⁹ times saturates harmlessly instead of wrapping.
    arc_arrivals: ShardedArcTally,
    dropped_in_window: u64,
    /// Whether the scenario asked for the stretch extension (tallying is
    /// cheap and always on; this gates emission only).
    stretch_on: bool,
    outcomes: OutcomeTally,
    stretch: StretchTally,
    /// Why the packet `choose_arc` just condemned is being dropped —
    /// consumed by the engine's immediately-following `note_drop`, which
    /// knows the *birth*-window flag the taxonomy is measured over.
    pending_drop: Option<DropKind>,
}

/// Outcome classification of a drop decided in `choose_arc`, handed to
/// `note_drop` (which applies the birth-window gate).
#[derive(Clone, Copy, Debug)]
enum DropKind {
    /// A live out-neighbour existed but none improved the metric (or the
    /// escape TTL ran out trying).
    LocalMinimum,
    /// No live out-arc at all.
    DeadEnd,
}

impl<T: RoutingTopology> GraphSpec<T> {
    /// Build the spec (materialising the fault mask and pre-drawing the
    /// dynamic fault-arrival schedule up to `horizon`, if any).
    /// `stretch` opts the report into the [`StretchExt`] block.
    pub fn new(
        topo: T,
        dest: GraphDestination,
        faults: Option<&FaultSpec>,
        horizon: f64,
        stretch: bool,
    ) -> GraphSpec<T> {
        let faults = faults.map(|f| FaultState::build(&topo, f, horizon));
        GraphSpec {
            hint: topo.mean_distance_hint(),
            arc_arrivals: ShardedArcTally::new(topo.num_arcs()),
            dropped_in_window: 0,
            stretch_on: stretch,
            outcomes: OutcomeTally::default(),
            stretch: StretchTally::default(),
            pending_drop: None,
            topo,
            dest,
            faults,
        }
    }

    /// The routed topology (for per-topology report assembly).
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// In-window packet arrivals per dense arc index (saturating,
    /// node-range sharded).
    pub fn arc_arrivals(&self) -> &ShardedArcTally {
        &self.arc_arrivals
    }

    /// Number of dead arcs in the fault mask (0 without one).
    pub fn dead_arcs(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.dead_count)
    }

    /// Packets born in the measurement window that were dropped.
    pub fn dropped_in_window(&self) -> u64 {
        self.dropped_in_window
    }
}

impl<T: RoutingTopology> EngineSpec for GraphSpec<T> {
    type Pkt = GraphPacket;

    fn num_sources(&self) -> usize {
        self.topo.num_sources()
    }

    fn num_arcs(&self) -> usize {
        self.topo.num_arcs()
    }

    fn arc_meta(&self, arc: usize) -> u32 {
        self.topo.arc_head(arc) as u32
    }

    fn mean_hops_hint(&self) -> f64 {
        self.hint
    }

    fn generate(&mut self, t: f64, source: u32, dest_rng: &mut SimRng) -> Spawn<GraphPacket> {
        let n = self.topo.num_nodes();
        let dest = match &self.dest {
            GraphDestination::Uniform => dest_rng.below(n) as u32,
            GraphDestination::FlipMask { dim, p } => source ^ sample_flip_mask(dest_rng, *dim, *p),
            GraphDestination::NodeCdf(cdf) => {
                let u = dest_rng.uniform01();
                cdf.partition_point(|&c| c <= u) as u32
            }
            GraphDestination::OffsetCdf(cdf) => {
                let u = dest_rng.uniform01();
                let offset = cdf.partition_point(|&c| c <= u) as u64 + 1;
                ((source as u64 + offset) % n as u64) as u32
            }
            GraphDestination::RowFlip { dim, p } => {
                ((*dim as u32) << *dim) | (source ^ sample_flip_mask(dest_rng, *dim, *p))
            }
            GraphDestination::LeafUniform(count) => dest_rng.below(*count) as u32,
        };
        if dest == source {
            Spawn::SelfDeliver
        } else {
            Spawn::Route(GraphPacket {
                born: t,
                dest,
                prev: u32::MAX,
                state: 0,
                dist0: u32::try_from(self.topo.distance(source as u64, dest as u64))
                    .unwrap_or(u32::MAX),
                trace: u32::MAX,
                hops: 0,
                tries: 0,
            })
        }
    }

    fn choose_arc(
        &mut self,
        t: f64,
        in_window: bool,
        node: u32,
        pkt: &mut GraphPacket,
        _route_rng: &mut SimRng,
    ) -> ArcChoice {
        let (node, dest) = (node as u64, pkt.dest as u64);
        let prev = pkt.prev;
        pkt.prev = node as u32;
        let topo = &self.topo;
        if let Some(faults) = self.faults.as_mut() {
            faults.apply_until(t);
        }

        // Escape-mode continuation: keep taking best-neighbour hops until
        // the packet sits strictly closer than where it got stuck, then
        // resume plain greedy.
        if pkt.state & ESCAPE_DEPTH != 0 {
            let d_here = topo.distance(node, dest);
            if (d_here as u64) + 1 < (pkt.state & ESCAPE_DEPTH) as u64 {
                pkt.state &= ESCAPE_STICKY;
            } else {
                let faults = self
                    .faults
                    .as_ref()
                    .expect("escape mode implies a fault spec");
                let FaultFallback::Escape { ttl } = faults.fallback else {
                    unreachable!("escape mode implies the escape fallback");
                };
                return match faults.escape(topo, node, dest, prev, escape_salt(pkt)) {
                    None => {
                        self.pending_drop = Some(DropKind::DeadEnd);
                        ArcChoice::Drop
                    }
                    Some((arc, d_head)) => {
                        if d_head >= d_here {
                            if pkt.tries >= ttl {
                                self.pending_drop = Some(DropKind::LocalMinimum);
                                return ArcChoice::Drop;
                            }
                            pkt.tries += 1;
                        }
                        if in_window {
                            self.arc_arrivals.bump(arc);
                        }
                        ArcChoice::Arc(arc as u32)
                    }
                };
            }
        }

        // The greedy arc — absent at a metric local minimum or dead end
        // (the sparse topologies' relaxed contract; dense topologies
        // always have one away from the destination).
        let greedy = topo.next_arc(node, dest);
        let blocked = match greedy {
            Some(a) => self.faults.as_ref().is_some_and(|f| f.dead[a]),
            None => true,
        };
        if !blocked {
            let arc = greedy.expect("unblocked implies a greedy arc");
            if in_window {
                self.arc_arrivals.bump(arc);
            }
            return ArcChoice::Arc(arc as u32);
        }

        // Greedy unavailable — dead arc or stall. Consult the fallback.
        let recovery: Option<(usize, bool)> = match self.faults.as_mut() {
            None => None,
            Some(faults) => match faults.fallback {
                FaultFallback::Drop => None,
                FaultFallback::Detour => faults.detour(topo, node, dest).map(|a| (a, false)),
                FaultFallback::Retry { budget } => {
                    faults.retry(topo, node, dest, pkt.tries, budget)
                }
                FaultFallback::Multipath => faults.multipath(topo, node, dest, pkt.tries),
                FaultFallback::Escape { ttl } => {
                    let d_here = topo.distance(node, dest);
                    match faults.escape(topo, node, dest, prev, escape_salt(pkt)) {
                        None => None,
                        Some((arc, d_head)) => {
                            let paid = d_head >= d_here;
                            if paid && pkt.tries >= ttl {
                                None
                            } else {
                                pkt.state = ESCAPE_STICKY
                                    | (d_here.min(ESCAPE_DEPTH as usize - 2) as u32 + 1);
                                Some((arc, paid))
                            }
                        }
                    }
                }
            },
        };
        match recovery {
            Some((arc, paid)) => {
                pkt.tries += paid as u16;
                if in_window {
                    self.arc_arrivals.bump(arc);
                }
                ArcChoice::Arc(arc as u32)
            }
            None => {
                // Outcome taxonomy: classify metric stalls (and escape
                // failures); dead-greedy-arc drops under the other
                // fallbacks stay plain fault drops.
                let escape = matches!(
                    self.faults.as_ref().map(|f| f.fallback),
                    Some(FaultFallback::Escape { .. })
                );
                if greedy.is_none() || escape {
                    self.pending_drop = Some(if no_live_out(self.faults.as_ref(), topo, node) {
                        DropKind::DeadEnd
                    } else {
                        DropKind::LocalMinimum
                    });
                }
                ArcChoice::Drop
            }
        }
    }

    fn note_service_end(&mut self, _t: f64, _meta: u32) {}

    fn advance(&mut self, meta: u32, pkt: &mut GraphPacket) -> Advance {
        pkt.hops += 1;
        if meta == pkt.dest {
            Advance::Deliver(pkt.hops)
        } else {
            Advance::Forward(meta)
        }
    }

    fn note_deliver(&mut self, pkt: &GraphPacket, in_window: bool) {
        if !in_window {
            return;
        }
        if pkt.state & ESCAPE_STICKY != 0 {
            self.outcomes.recovered += 1;
            self.outcomes.escape_hops += pkt.tries as u64;
        }
        let s = &mut self.stretch;
        s.delivered += 1;
        s.deflections += pkt.tries as u64;
        let ratio = pkt.hops as f64 / pkt.dist0.max(1) as f64;
        s.stretch_sum += ratio;
        if pkt.tries > 0 {
            s.deflected += 1;
            s.deflected_sum += ratio;
        } else {
            s.clean_sum += ratio;
        }
        s.excess_sum += pkt.hops as i64 - pkt.dist0 as i64;
    }

    fn note_drop(&mut self, _pkt: &GraphPacket, in_window: bool) {
        let kind = self.pending_drop.take();
        if in_window {
            self.dropped_in_window += 1;
            match kind {
                Some(DropKind::LocalMinimum) => self.outcomes.local_minimum += 1,
                Some(DropKind::DeadEnd) => self.outcomes.dead_end += 1,
                // Plain fault drop under a non-escape fallback.
                None => {}
            }
        }
    }

    #[inline]
    fn in_escape(&self, pkt: &GraphPacket) -> bool {
        // Queried right after `choose_arc`, so the depth word reflects the
        // hop just chosen (set on fallback entry, cleared on recovery).
        pkt.state & ESCAPE_DEPTH != 0
    }
}

/// How a [`GraphSim`] renders its per-topology report extension.
pub type ExtBuilder<T> = fn(&GraphSpec<T>, &EngineCfg, &MetricsCollector) -> ReportExt;

/// The blanket graph simulator: a [`GraphSpec`] driven by the generic
/// [`Engine`], plus a per-topology extension builder (the **only**
/// topology-specific code left). Construct through
/// [`crate::scenario::Scenario`].
pub struct GraphSim<T: RoutingTopology> {
    engine: Engine<GraphSpec<T>>,
    ext: ExtBuilder<T>,
}

impl<T: RoutingTopology> GraphSim<T> {
    /// Build the simulator from a scenario's run parameters.
    ///
    /// [`crate::scenario::Scenario::into_simulator`] is the validated
    /// front door; this constructor stays public for harnesses that need
    /// to measure combinations validation deliberately refuses (E27 uses
    /// it for the butterfly's counterfactual drop baseline).
    pub fn from_parts(
        topo: T,
        dest: GraphDestination,
        s: &Scenario,
        ext: ExtBuilder<T>,
    ) -> GraphSim<T> {
        let spec = GraphSpec::new(
            topo,
            dest,
            s.workload.faults.as_ref(),
            s.run.horizon,
            s.workload.stretch.unwrap_or(false),
        );
        let cfg = EngineCfg {
            lambda: s.workload.lambda,
            arrivals: s.workload.arrivals,
            contention: s.policy.contention,
            scheduler: s.run.scheduler,
            horizon: s.run.horizon,
            warmup: s.run.warmup,
            seed: s.run.seed,
            drain: s.run.drain,
        };
        GraphSim {
            engine: Engine::new(spec, cfg),
            ext,
        }
    }

    /// Run to completion and summarise.
    pub fn run(self) -> Report {
        self.run_observed(&mut NullObserver)
    }

    /// Run to completion under a streaming [`Observer`] and summarise
    /// (bit-identical to an unobserved run).
    pub fn run_observed<O: Observer>(mut self, obs: &mut O) -> Report {
        self.engine.drive(obs);
        let engine = &self.engine;
        let (spec, cfg, collector) = (engine.spec(), engine.cfg(), engine.collector());
        Report {
            delay: collector.delay_stats(),
            mean_in_system: collector.mean_in_system(cfg.horizon),
            peak_in_system: collector.peak_in_system(),
            throughput: collector.throughput(cfg.horizon),
            little_error: collector.little_check(cfg.horizon).relative_error(),
            generated: collector.generated(),
            delivered: collector.delivered_total(),
            events: engine.events_processed(),
            ext: (self.ext)(spec, cfg, collector),
            telemetry: None,
        }
    }
}

/// Shared [`GraphExt`] assembly; `emit_outcomes` controls whether the
/// route-outcome taxonomy block is attached (always for sparse
/// topologies, only under the escape fallback for dense ones — keeping
/// the pre-existing dense baselines byte-identical).
fn assemble<T: RoutingTopology>(
    spec: &GraphSpec<T>,
    cfg: &EngineCfg,
    collector: &MetricsCollector,
    emit_outcomes: bool,
) -> GraphExt {
    let span = cfg.horizon - cfg.warmup;
    let arcs = spec.topology().num_arcs() as u64;
    let live = arcs - spec.dead_arcs();
    let total: u64 = spec.arc_arrivals().total();
    let max = spec.arc_arrivals().max();
    let delivered_measured = collector.delay_stats().count;
    let dropped_measured = spec.dropped_in_window();
    let measured = delivered_measured + dropped_measured;
    let outcomes = emit_outcomes.then(|| {
        let o = &spec.outcomes;
        OutcomeExt {
            success: delivered_measured,
            local_minimum: o.local_minimum,
            dead_end: o.dead_end,
            recovered: o.recovered,
            mean_escape_hops: o.escape_hops as f64 / o.recovered as f64,
        }
    });
    let stretch = spec.stretch_on.then(|| {
        let s = &spec.stretch;
        StretchExt {
            mean_stretch: s.stretch_sum / s.delivered as f64,
            mean_deflections: s.deflections as f64 / s.delivered as f64,
            deflected_fraction: s.deflected as f64 / s.delivered as f64,
            clean_stretch: s.clean_sum / (s.delivered - s.deflected) as f64,
            deflected_stretch: s.deflected_sum / s.deflected as f64,
            mean_excess_hops: s.excess_sum as f64 / s.delivered as f64,
        }
    });
    GraphExt {
        nodes: spec.topology().num_nodes() as u64,
        arcs,
        dead_arcs: spec.dead_arcs(),
        mean_hops: collector.mean_hops(),
        zero_hop_fraction: collector.zero_hop_fraction(),
        mean_arc_rate: if live == 0 {
            0.0
        } else {
            total as f64 / (span * live as f64)
        },
        max_arc_rate: max as f64 / span,
        dropped: collector.dropped_total(),
        dropped_in_window: dropped_measured,
        delivery_fraction: if measured == 0 {
            f64::NAN
        } else {
            delivered_measured as f64 / measured as f64
        },
        outcomes,
        stretch,
    }
}

/// The generic [`GraphExt`] extension builder — what every dense
/// topology gets unless it installs a specialised one (the plain ring
/// keeps its byte-compatible `RingExt`). Outcome taxonomy appears only
/// when the escape fallback is configured.
pub fn graph_ext<T: RoutingTopology>(
    spec: &GraphSpec<T>,
    cfg: &EngineCfg,
    collector: &MetricsCollector,
) -> ReportExt {
    let emit = spec
        .faults
        .as_ref()
        .is_some_and(|f| matches!(f.fallback, FaultFallback::Escape { .. }));
    ReportExt::Graph(assemble(spec, cfg, collector, emit))
}

/// The sparse-topology extension builder: identical to [`graph_ext`]
/// but always emits the `SUCCESS | LOCAL_MINIMUM | DEAD_END` outcome
/// taxonomy — metric greedy can stall even without faults.
pub fn sparse_ext<T: RoutingTopology>(
    spec: &GraphSpec<T>,
    cfg: &EngineCfg,
    collector: &MetricsCollector,
) -> ReportExt {
    ReportExt::Graph(assemble(spec, cfg, collector, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ContentionPolicy, DestinationSpec};
    use crate::scenario::{Scenario, Topology};

    fn torus_scenario(radix: usize, dim: usize, lambda: f64) -> Scenario {
        Scenario::builder(Topology::Torus { radix, dim })
            .lambda(lambda)
            .horizon(2_000.0)
            .warmup(400.0)
            .seed(21)
            .build()
            .expect("valid scenario")
    }

    fn graph(r: &Report) -> &GraphExt {
        r.graph().expect("graph extension")
    }

    #[test]
    fn torus_delivers_everything_with_theoretical_hops() {
        // 4-ary 2-cube: E[hops] = 2·⌊16/4⌋/4 = 2.0, zero-hop mass 1/16.
        let r = torus_scenario(4, 2, 0.5).run().unwrap();
        assert_eq!(r.generated, r.delivered);
        assert!(r.generated > 10_000);
        let g = graph(&r);
        assert!((g.mean_hops - 2.0).abs() < 0.05, "hops {}", g.mean_hops);
        assert!(
            (g.zero_hop_fraction - 1.0 / 16.0).abs() < 0.01,
            "zero-hop {}",
            g.zero_hop_fraction
        );
        assert_eq!(g.dead_arcs, 0);
        assert_eq!(g.dropped, 0);
        assert!((g.delivery_fraction - 1.0).abs() < 1e-12);
        assert!(r.little_error < 0.05, "little {}", r.little_error);
    }

    #[test]
    fn debruijn_delivers_with_near_diameter_hops() {
        let r = Scenario::builder(Topology::DeBruijn { dim: 5 })
            .lambda(0.2)
            .horizon(2_000.0)
            .warmup(400.0)
            .seed(3)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.generated, r.delivered);
        let g = graph(&r);
        // Mean distance sits between n-2 and n for the shift graph.
        assert!(
            g.mean_hops > 3.0 && g.mean_hops < 5.0,
            "hops {}",
            g.mean_hops
        );
        assert_eq!(g.nodes, 32);
        assert_eq!(g.arcs, 62);
    }

    #[test]
    fn torus_one_dim_matches_bidirectional_ring() {
        // A k-ary 1-cube IS the bidirectional ring; same seed, same λ —
        // the uniform destination draw and the greedy step coincide, so
        // the common report fields agree exactly.
        let t = torus_scenario(16, 1, 0.2).run().unwrap();
        let r = Scenario::builder(Topology::Ring {
            nodes: 16,
            bidirectional: true,
        })
        .lambda(0.2)
        .horizon(2_000.0)
        .warmup(400.0)
        .seed(21)
        .build()
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(t.delay, r.delay);
        assert_eq!(t.generated, r.generated);
        assert_eq!(t.events, r.events);
    }

    #[test]
    fn seeded_faults_split_delivered_and_dropped() {
        let mut s = torus_scenario(4, 2, 0.4);
        s.workload.faults = Some(FaultSpec {
            mode: FaultMode::Seeded {
                fraction: 0.25,
                seed: 99,
            },
            fallback: FaultFallback::Drop,
            dynamics: None,
        });
        let r = s.run().unwrap();
        let g = graph(&r);
        assert_eq!(g.dead_arcs, 16); // 0.25 · 64
        assert!(g.dropped > 0, "a quarter of arcs dead but nothing dropped");
        assert_eq!(r.generated, r.delivered + g.dropped, "conservation");
        assert!(g.delivery_fraction < 1.0 && g.delivery_fraction > 0.0);
    }

    #[test]
    fn detour_fallback_delivers_more_than_drop() {
        let faulty = |fallback| {
            let mut s = torus_scenario(5, 2, 0.3);
            s.workload.faults = Some(FaultSpec {
                mode: FaultMode::Seeded {
                    fraction: 0.15,
                    seed: 4,
                },
                fallback,
                dynamics: None,
            });
            s.run().unwrap()
        };
        let dropped = faulty(FaultFallback::Drop);
        let detoured = faulty(FaultFallback::Detour);
        let (gd, gt) = (graph(&dropped), graph(&detoured));
        assert!(
            gt.delivery_fraction > gd.delivery_fraction,
            "detour {} vs drop {}",
            gt.delivery_fraction,
            gd.delivery_fraction
        );
        assert_eq!(dropped.generated, dropped.delivered + gd.dropped);
        assert_eq!(detoured.generated, detoured.delivered + gt.dropped);
    }

    #[test]
    fn explicit_fault_on_unidirectional_ring_drops_all_crossing_traffic() {
        // Killing one arc of a clockwise-only ring partitions every route
        // that crosses it; with Drop fallback those packets must all drop
        // (there is no alternative arc, so Detour behaves identically).
        for fallback in [FaultFallback::Drop, FaultFallback::Detour] {
            let mut s = Scenario::builder(Topology::Ring {
                nodes: 8,
                bidirectional: false,
            })
            .lambda(0.1)
            .horizon(1_000.0)
            .warmup(100.0)
            .seed(11)
            .build()
            .unwrap();
            s.workload.faults = Some(FaultSpec {
                mode: FaultMode::Explicit { arcs: vec![3] },
                fallback,
                dynamics: None,
            });
            let r = s.run().unwrap();
            let g = graph(&r);
            assert_eq!(g.dead_arcs, 1);
            assert!(g.dropped > 0);
            assert_eq!(r.generated, r.delivered + g.dropped);
            // Uniform destinations: arc 3 carries 7/16 of routes... just
            // bound it loosely.
            let frac = g.dropped as f64 / r.generated as f64;
            assert!(frac > 0.2 && frac < 0.6, "drop fraction {frac}");
        }
    }

    #[test]
    fn node_pmf_point_mass_sends_everything_to_one_node() {
        let mut pmf = vec![0.0; 25];
        pmf[7] = 1.0;
        let s = Scenario::builder(Topology::Torus { radix: 5, dim: 2 })
            .lambda(0.1)
            .dest(DestinationSpec::node_pmf(pmf).unwrap())
            .horizon(1_000.0)
            .warmup(200.0)
            .seed(5)
            .build()
            .unwrap();
        let r = s.run().unwrap();
        assert_eq!(r.generated, r.delivered);
        let g = graph(&r);
        // 1/25 of packets originate at node 7 and self-deliver.
        assert!((g.zero_hop_fraction - 0.04).abs() < 0.01);
        // Hot-spot demand concentrates on the destination's in-arcs.
        assert!(g.max_arc_rate > 3.0 * g.mean_arc_rate);
    }

    #[test]
    fn ring_power_law_skews_toward_short_hops() {
        let run_alpha = |alpha: f64| {
            let s = Scenario::builder(Topology::Ring {
                nodes: 64,
                bidirectional: true,
            })
            .lambda(0.05)
            .dest(DestinationSpec::RingPowerLaw { alpha })
            .horizon(2_000.0)
            .warmup(400.0)
            .seed(6)
            .build()
            .unwrap();
            s.run().unwrap()
        };
        let skewed = run_alpha(1.5);
        let flat = run_alpha(0.0);
        let (gs, gf) = (graph(&skewed), graph(&flat));
        // Power-law demand prefers nearby destinations → shorter greedy
        // paths; alpha = 0 is uniform over the 63 non-self offsets.
        assert!(
            gs.mean_hops < 0.5 * gf.mean_hops,
            "skewed {} vs flat {}",
            gs.mean_hops,
            gf.mean_hops
        );
        assert_eq!(gs.zero_hop_fraction, 0.0, "power law never self-delivers");
        assert!((gf.mean_hops - 64.0 / 4.0 * 64.0 / 63.0).abs() < 0.3);
        assert_eq!(skewed.generated, skewed.delivered);
    }

    #[test]
    fn faults_compose_with_contention_policies_and_slotted_arrivals() {
        for contention in [
            ContentionPolicy::Fifo,
            ContentionPolicy::Lifo,
            ContentionPolicy::Random,
        ] {
            let mut s = torus_scenario(4, 2, 0.4);
            s.policy.contention = contention;
            s.workload.arrivals = crate::config::ArrivalModel::Slotted { slots_per_unit: 2 };
            s.workload.faults = Some(FaultSpec {
                mode: FaultMode::Seeded {
                    fraction: 0.2,
                    seed: 13,
                },
                fallback: FaultFallback::Detour,
                dynamics: None,
            });
            let r = s.run().unwrap();
            let g = graph(&r);
            assert_eq!(
                r.generated,
                r.delivered + g.dropped,
                "conservation under {contention}"
            );
        }
    }

    // --- The ring on the blanket spec (ports of the retired
    // `ring_sim.rs` suite; the corpus gate already proves byte-identical
    // baselines, these keep the physics honest) ---

    fn ring_scenario(nodes: usize, bidirectional: bool, lambda: f64) -> Scenario {
        Scenario::builder(Topology::Ring {
            nodes,
            bidirectional,
        })
        .lambda(lambda)
        .horizon(3_000.0)
        .warmup(500.0)
        .seed(41)
        .build()
        .expect("valid scenario")
    }

    fn ring(r: &Report) -> &crate::scenario::RingExt {
        r.ring().expect("ring extension")
    }

    #[test]
    fn ring_everything_delivered_and_mean_hops_match() {
        // 16-node bidirectional ring: mean greedy path = 4.0 hops,
        // zero-hop fraction 1/16.
        let r = ring_scenario(16, true, 0.2).run().unwrap();
        assert_eq!(r.generated, r.delivered);
        assert!(r.generated > 5_000);
        assert!(
            (ring(&r).mean_hops - 4.0).abs() < 0.1,
            "hops {}",
            ring(&r).mean_hops
        );
        assert!((ring(&r).zero_hop_fraction - 1.0 / 16.0).abs() < 0.01);
    }

    #[test]
    fn unidirectional_ring_never_uses_ccw_arcs() {
        let r = ring_scenario(12, false, 0.1).run().unwrap();
        assert_eq!(ring(&r).counter_clockwise_arc_rate, 0.0);
        // Per-arc clockwise rate = λ · (n-1)/2 = 0.55.
        assert!((ring(&r).clockwise_arc_rate - 0.55).abs() < 0.05);
        assert_eq!(r.generated, r.delivered);
    }

    #[test]
    fn bidirectional_ring_splits_load_between_directions() {
        let r = ring_scenario(16, true, 0.2).run().unwrap();
        let (cw, ccw) = (
            ring(&r).clockwise_arc_rate,
            ring(&r).counter_clockwise_arc_rate,
        );
        // Clockwise carries slightly more (antipode ties go clockwise).
        assert!(cw > ccw, "cw {cw} vs ccw {ccw}");
        assert!(ccw > 0.0);
        assert!((cw + ccw - 0.2 * 4.0).abs() < 0.06);
    }

    #[test]
    fn ring_delay_grows_near_capacity() {
        // Unidirectional n=9: capacity λ(n-1)/2 < 1 ⇒ λ < 0.25.
        let light = ring_scenario(9, false, 0.05).run().unwrap();
        let heavy = ring_scenario(9, false, 0.22).run().unwrap();
        assert!(ring(&heavy).rho > ring(&light).rho);
        assert!(ring(&heavy).rho < 1.0);
        assert!(heavy.delay.mean > light.delay.mean);
        assert_eq!(heavy.generated, heavy.delivered);
    }

    #[test]
    fn ring_little_law_and_determinism() {
        let a = ring_scenario(16, true, 0.3).run().unwrap();
        assert!(a.little_error < 0.05, "little {}", a.little_error);
        let b = ring_scenario(16, true, 0.3).run().unwrap();
        assert_eq!(a.delay.mean, b.delay.mean);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn fault_pattern_is_a_function_of_the_fault_seed_not_the_run_seed() {
        let run = |run_seed: u64, fault_seed: u64| {
            let mut s = torus_scenario(4, 2, 0.3);
            s.run.seed = run_seed;
            s.workload.faults = Some(FaultSpec {
                mode: FaultMode::Seeded {
                    fraction: 0.25,
                    seed: fault_seed,
                },
                fallback: FaultFallback::Drop,
                dynamics: None,
            });
            s.run().unwrap()
        };
        let a = run(1, 7);
        let b = run(1, 7);
        assert_eq!(a, b, "same seeds, same report");
        let c = run(2, 7);
        assert_ne!(a.delay.mean, c.delay.mean, "run seed changes traffic");
        let d = run(1, 8);
        assert_ne!(
            a.delivered, d.delivered,
            "fault seed changes the dead-arc pattern"
        );
    }

    #[test]
    fn graph_packet_keeps_its_four_word_layout() {
        // born (8) + dest/prev/state/dist0/trace (4 each) + hops/tries
        // (2 each) — four words flat, no padding; growing the packet
        // inflates every arc queue in the engine.
        assert_eq!(std::mem::size_of::<GraphPacket>(), 32);
    }

    fn faulty_torus(fallback: FaultFallback, fraction: f64) -> Report {
        let mut s = torus_scenario(5, 2, 0.3);
        s.workload.faults = Some(FaultSpec {
            mode: FaultMode::Seeded { fraction, seed: 4 },
            fallback,
            dynamics: None,
        });
        s.run().unwrap()
    }

    #[test]
    fn retry_outdelivers_detour_which_outdelivers_drop() {
        // At 30% dead arcs the strict-progress detour often has no live
        // option left; retry's paid deflections route around the hole.
        let dropped = faulty_torus(FaultFallback::Drop, 0.3);
        let detoured = faulty_torus(FaultFallback::Detour, 0.3);
        let retried = faulty_torus(FaultFallback::Retry { budget: 8 }, 0.3);
        let (gd, gt, gr) = (graph(&dropped), graph(&detoured), graph(&retried));
        assert!(
            gr.delivery_fraction > gt.delivery_fraction,
            "retry {} vs detour {}",
            gr.delivery_fraction,
            gt.delivery_fraction
        );
        assert!(gt.delivery_fraction > gd.delivery_fraction);
        for r in [&dropped, &detoured, &retried] {
            assert_eq!(r.generated, r.delivered + graph(r).dropped, "conservation");
        }
    }

    #[test]
    fn multipath_outdelivers_drop_and_conserves() {
        let dropped = faulty_torus(FaultFallback::Drop, 0.25);
        let multi = faulty_torus(FaultFallback::Multipath, 0.25);
        let (gd, gm) = (graph(&dropped), graph(&multi));
        assert!(
            gm.delivery_fraction > gd.delivery_fraction,
            "multipath {} vs drop {}",
            gm.delivery_fraction,
            gd.delivery_fraction
        );
        assert_eq!(multi.generated, multi.delivered + gm.dropped);
        // Reruns are bit-identical (no RNG involved in the fallback).
        let again = faulty_torus(FaultFallback::Multipath, 0.25);
        assert_eq!(multi, again);
    }

    #[test]
    fn dynamic_faults_grow_the_dead_set_mid_run() {
        let run = |rate: f64| {
            let mut s = torus_scenario(4, 2, 0.4);
            s.workload.faults = Some(FaultSpec {
                mode: FaultMode::Explicit { arcs: vec![] },
                fallback: FaultFallback::Detour,
                dynamics: Some(FaultArrivals { rate, seed: 31 }),
            });
            s.run().unwrap()
        };
        let calm = run(0.0);
        // Rate 0 disables the process: identical to a static empty mask.
        assert_eq!(graph(&calm).dead_arcs, 0);
        assert_eq!(graph(&calm).dropped, 0);
        let stormy = run(0.02);
        let g = graph(&stormy);
        assert!(g.dead_arcs > 0, "no arcs died over a 2000-unit horizon");
        assert!(g.dead_arcs < 64, "every arc died");
        assert_eq!(stormy.generated, stormy.delivered + g.dropped);
        // Same arrival seed, same run: bit-identical.
        assert_eq!(stormy, run(0.02));
    }

    #[test]
    fn dynamic_fault_pattern_follows_its_own_seed() {
        let run = |seed: u64| {
            let mut s = torus_scenario(4, 2, 0.4);
            s.workload.faults = Some(FaultSpec {
                mode: FaultMode::Explicit { arcs: vec![] },
                fallback: FaultFallback::Drop,
                dynamics: Some(FaultArrivals { rate: 0.05, seed }),
            });
            s.run().unwrap()
        };
        let a = run(5);
        let b = run(6);
        assert_ne!(
            a.delivered, b.delivered,
            "arrival seed changes the death schedule"
        );
    }

    #[test]
    fn escape_outdelivers_drop_and_classifies_every_measured_drop() {
        let dropped = faulty_torus(FaultFallback::Drop, 0.3);
        let escaped = faulty_torus(FaultFallback::Escape { ttl: 8 }, 0.3);
        let (gd, ge) = (graph(&dropped), graph(&escaped));
        assert!(
            ge.delivery_fraction > gd.delivery_fraction,
            "escape {} vs drop {}",
            ge.delivery_fraction,
            gd.delivery_fraction
        );
        assert_eq!(
            escaped.generated,
            escaped.delivered + ge.dropped,
            "conservation"
        );
        // Outcome taxonomy appears only under the escape fallback, so
        // every pre-existing dense baseline stays byte-identical.
        assert!(gd.outcomes.is_none(), "drop runs must not grow a taxonomy");
        let o = ge.outcomes.as_ref().expect("escape reports outcomes");
        assert!(o.success > 0);
        assert!(o.recovered > 0, "30% dead arcs but nothing ever escaped");
        assert!(o.mean_escape_hops > 0.0);
        // Every measured drop is classified, exhaustively.
        assert_eq!(o.local_minimum + o.dead_end, ge.dropped_in_window);
        // Bit-identical reruns: the fallback uses no RNG.
        assert_eq!(escaped, faulty_torus(FaultFallback::Escape { ttl: 8 }, 0.3));
    }

    #[test]
    fn escape_ttl_bounds_the_paid_walk() {
        // TTL 1 allows a single paid hop per minimum: strictly fewer
        // deliveries than a generous TTL, strictly more than plain drop.
        let tight = faulty_torus(FaultFallback::Escape { ttl: 1 }, 0.3);
        let loose = faulty_torus(FaultFallback::Escape { ttl: 12 }, 0.3);
        let dropped = faulty_torus(FaultFallback::Drop, 0.3);
        assert!(graph(&loose).delivery_fraction >= graph(&tight).delivery_fraction);
        assert!(graph(&tight).delivery_fraction > graph(&dropped).delivery_fraction);
        for r in [&tight, &loose] {
            assert_eq!(r.generated, r.delivered + graph(r).dropped, "conservation");
        }
    }

    #[test]
    fn stretch_accounting_is_opt_in_and_exact_on_the_clean_path() {
        // Fault-free torus: greedy hops equal the initial distance, so
        // every delivery is clean with stretch exactly 1.
        let mut s = torus_scenario(4, 2, 0.4);
        s.workload.stretch = Some(true);
        let r = s.run().unwrap();
        let st = graph(&r).stretch.as_ref().expect("stretch was requested");
        assert_eq!(st.mean_deflections, 0.0);
        assert_eq!(st.deflected_fraction, 0.0);
        assert!(
            (st.mean_stretch - 1.0).abs() < 1e-12,
            "stretch {}",
            st.mean_stretch
        );
        assert!((st.clean_stretch - 1.0).abs() < 1e-12);
        assert!(st.deflected_stretch.is_nan(), "nothing deflected");
        assert_eq!(st.mean_excess_hops, 0.0);
        // Off by default: the plain run reports no stretch block.
        let plain = torus_scenario(4, 2, 0.4).run().unwrap();
        assert!(graph(&plain).stretch.is_none());
    }

    #[test]
    fn faulted_butterfly_multipath_stretch_counts_deflections() {
        // Satellite regression: the multipath-recovered butterfly pays
        // extra passes, and the stretch block must expose them — clean
        // deliveries ride the unique greedy path (stretch exactly 1),
        // deflected ones exceed it.
        let s = Scenario::builder(Topology::Butterfly { dim: 4 })
            .lambda(0.3)
            .p(0.5)
            .horizon(2_000.0)
            .warmup(400.0)
            .seed(17)
            .faults(Some(FaultSpec {
                mode: FaultMode::Seeded {
                    fraction: 0.08,
                    seed: 23,
                },
                fallback: FaultFallback::Multipath,
                dynamics: None,
            }))
            .stretch(true)
            .build()
            .unwrap();
        let r = s.run().unwrap();
        let g = graph(&r);
        let st = g.stretch.as_ref().expect("stretch was requested");
        assert!(st.mean_deflections > 0.0, "8% dead arcs but no deflections");
        assert!(st.deflected_fraction > 0.0 && st.deflected_fraction < 1.0);
        assert!(
            (st.clean_stretch - 1.0).abs() < 1e-12,
            "unique paths are tight"
        );
        assert!(
            st.deflected_stretch > 1.0,
            "back-routed passes must stretch: {}",
            st.deflected_stretch
        );
        assert!(st.mean_stretch > 1.0 && st.mean_stretch < st.deflected_stretch);
        assert!(st.mean_excess_hops > 0.0);
        // Bit-identical reruns, stretch block included.
        assert_eq!(r, s.run().unwrap());
    }
}
