//! Packet-level simulators for greedy routing — one topology-generic
//! engine, many topologies.
//!
//! This crate simulates the paper's model *exactly*: independent Poisson
//! packet generation at every node, destinations drawn by independent
//! bit-flips with probability `p` (Eq. (1) / Lemma 1), unit transmission
//! times, one packet per arc at a time, infinite buffers, FIFO contention
//! resolution, and no idling. On the same engine it runs the baseline and
//! ablation schemes discussed in the paper, the abstract equivalent
//! queueing networks of §3.1/§4.3 under both FIFO and Processor-Sharing
//! service, static batch routing, empirical stability detection — and
//! topologies beyond the paper (greedy routing in rings, the Papillon
//! direction).
//!
//! # Architecture: one generic engine, thin topology specs
//!
//! The event loop lives **once**, in [`engine`]: a monomorphised
//! `Engine<Spec>` owns one 8-byte record per arc (a state word — idle,
//! busy, or the handle of the arc's waiting list in the shared slab
//! packet [`pool`] — and the arc's in-window arrival count), the list
//! of pending service completions (a unit-service FIFO, or the
//! reference heap), the contention policies, warm-up truncation, drain
//! control, metrics and the observer taps. What a topology contributes
//! is an [`engine::EngineSpec`] — its packet representation,
//! destination law, next-arc choice (with the chosen arc's routing
//! word, which rides in the completion entry) and per-topology
//! statistics. The current instantiations:
//!
//! | module | spec | the paper's name |
//! |---|---|---|
//! | [`hypercube_sim`] | schemes over XOR masks, per-dimension occupancy | §3 |
//! | [`butterfly_sim`] | unique levelled paths, vertical-hop tally | §4 |
//! | [`graph_sim`] | **any** `RoutingTopology` as pure data | ring (Papillon), torus, de Bruijn, the generated sparse graphs |
//!
//! Each spec also renders its report extension
//! ([`engine::EngineSpec::ext`]), whose arc-rate fields sum the engine's
//! per-arc arrival counts; the [`metrics::MetricsCollector`] fills the
//! common [`scenario::Report`] fields, and `Engine<Spec>` itself is the
//! [`scenario::Simulator`] a scenario runs.
//!
//! Two simulators deliberately stay off the generic engine:
//! [`equivalent_network`] (per-*server* PS service with positional
//! coupling — the §3.1 proof device) and [`pipelined`] (round-driven, no
//! event queue). They share the metrics and report surface; the
//! equivalent network drives the `hyperroute_desim::EventQueue` binary
//! heap under either scheduler kind, since its PS servers schedule
//! departures at arbitrary times.
//!
//! ## How to add a topology with zero event code
//!
//! The blanket [`graph_sim::GraphSpec`] runs any
//! `hyperroute_topology::RoutingTopology` on the generic engine — the
//! torus and de Bruijn graphs are the worked examples, each landed as
//! pure graph code. The recipe is:
//!
//! 1. Implement `RoutingTopology` for the graph (dense arcs + greedy
//!    `next_arc` + `distance`); property tests in
//!    `tests/proptest_routing.rs` check strict per-hop progress.
//! 2. Add a [`scenario::Topology`] variant and a validation arm, and
//!    register it in `Scenario::into_simulator` as
//!    `self.engine(GraphSpec::new(YourGraph::new(..), dest, self, graph_ext))`
//!    — done: the scenario runs as an `Engine<GraphSpec<YourGraph>>`.
//!    Destination laws (uniform / weighted-node pmf), arc-fault
//!    masks with all four fallbacks, contention policies, slotted
//!    arrivals, sweeps, sharded grids, observers, stability probes and
//!    the corpus gate all work immediately; reports carry the generic
//!    [`scenario::GraphExt`].
//! 3. Drop scenario files into `scenarios/` and regenerate baselines
//!    with `hyperroute-grid run-corpus --update`.
//!
//! Generated sparse graphs (`hyperroute-sparse`: Kleinberg small-world,
//! hyperbolic disk, configuration-model scale-free and expander) skip
//! step 1 entirely — `SparseTopology` already implements the trait over
//! any seeded CSR + embedding, so adding a *generator* is a ~100-line
//! pure function (the walkthrough lives in that crate's docs). Because
//! metric greedy can stall, their runs additionally report the
//! `SUCCESS | LOCAL_MINIMUM | DEAD_END` route-outcome taxonomy in
//! [`scenario::OutcomeExt`].
//!
//! Topologies that need custom per-hop state or statistics (the
//! hypercube's schemes, the butterfly's per-level rates) still write a
//! hand-tuned [`engine::EngineSpec`] (~150 lines) against the same
//! engine; the plain ring keeps its byte-compatible `RingExt` through a
//! specialised extension builder over the blanket spec.
//!
//! # Fault handling: the five-fallback model
//!
//! A [`config::FaultSpec`] kills a set of directed arcs — a static
//! seeded/explicit mask, an optional dynamic arrival process
//! ([`config::FaultArrivals`]: further arcs die mid-run at seeded
//! exponential interarrival times), or both. When a packet's greedy arc
//! is dead, its [`config::FaultFallback`] decides what happens next:
//!
//! | fallback | recovery rule | needs |
//! |---|---|---|
//! | `Drop` | count the packet as dropped, always | nothing |
//! | `Detour` | first live same-kind arc with strict shortest-path progress | spare greedy arcs (hypercube, torus) |
//! | `Multipath` | first live arc from the topology's **ranked alternates**, regressing ones capped per packet | `RoutingTopology::alternate_arcs` |
//! | `Retry { budget }` | free detour if one exists, else any live ranked alternate, charged against a per-packet deflection budget | both |
//! | `Escape { ttl }` | GOAFR-style walk to the best live neighbour even **without** strict progress, up to `ttl` paid (non-improving) hops per packet | a metric `distance` (sparse topologies; recovers local minima, not just dead arcs) |
//!
//! Whatever the fallback, conservation stays exact: every generated
//! packet ends as delivered or dropped (`generated == delivered +
//! dropped`, retries counted once), and reruns are bit-identical because
//! the mask, the dynamic arrival schedule, and the traffic are all
//! independently seeded.
//!
//! The ranked-alternate fallbacks are what make faults survivable on
//! topologies whose greedy paths are *unique*. The worked example is the
//! butterfly's back-routing: a greedy butterfly path crosses levels
//! `0..d` once, choosing the straight or cross arc at level `l` by the
//! destination row bit `l`. If the required arc at level `l` is dead,
//! `alternate_arcs` offers the *sibling* arc — the other kind at the
//! same level. Taking it sets row bit `l` wrong, so when the packet
//! reaches level `d` it is on the destination column but the wrong row;
//! the topology then routes it through a **fresh pass** (re-entering at
//! level 0 of its current row, the extra-pass analogue of back-routing
//! through the spare stage permutation), which re-fixes the damaged bit
//! and retries the dead level with new row context. Each deflection
//! costs at most `d` extra hops — one bounded-stretch pass — and the
//! per-packet deflection cap keeps worst-case masks from cycling
//! packets forever. The de Bruijn graph plays the same trick with its
//! binary sibling shift (stretch ≤ diameter), the fat tree with its
//! second, equal-cost up arc (stretch 0 while ascending). Experiment
//! E27 quantifies what this buys: delivery rates on the butterfly and
//! de Bruijn graph under `Multipath`/`Retry` sit far above the
//! `Drop`/`Detour` baselines at equal fault fractions.
//!
//! # The scenario API
//!
//! Every workload is expressed as one typed [`scenario::Scenario`]:
//! a [`scenario::Topology`] (hypercube, butterfly, equivalent network,
//! pipelined scheme, or ring), a [`scenario::Workload`] (arrival model,
//! `λ`, destination distribution), a [`scenario::Policy`] (routing
//! scheme, contention rule, service discipline) and a
//! [`scenario::RunControl`] (horizon, warm-up, seed, scheduler backend).
//! The builder validates the combination up front and returns a
//! structured [`scenario::ConfigError`]; `run()` dispatches through the
//! [`scenario::Simulator`] trait onto the matching engine and yields a
//! unified [`scenario::Report`].
//!
//! ```
//! use hyperroute_core::scenario::{Scenario, Topology};
//!
//! let report = Scenario::builder(Topology::Hypercube { dim: 4 })
//!     .lambda(1.0)
//!     .p(0.5) // load factor ρ = λp = 0.5
//!     .horizon(2_000.0)
//!     .warmup(400.0)
//!     .seed(1)
//!     .build()
//!     .expect("valid scenario")
//!     .run()
//!     .expect("runs to completion");
//! // Prop. 12: T ≤ dp/(1-ρ) = 4. Prop. 13: T ≥ dp + pρ/(2(1-ρ)) = 2.25.
//! assert!(report.delay.mean < 4.0 && report.delay.mean > 2.0);
//! ```
//!
//! The same spec drives the ring:
//!
//! ```
//! use hyperroute_core::scenario::{Scenario, Topology};
//!
//! let report = Scenario::builder(Topology::Ring { nodes: 16, bidirectional: true })
//!     .lambda(0.3)
//!     .horizon(2_000.0)
//!     .warmup(400.0)
//!     .seed(1)
//!     .build()
//!     .expect("valid scenario")
//!     .run()
//!     .expect("runs to completion");
//! // Uniform destinations on a 16-ring: mean greedy path = 4 hops.
//! let ring = report.ring().expect("ring extension");
//! assert!((ring.mean_hops - 4.0).abs() < 0.2);
//! ```
//!
//! Scenarios serialise to JSON files ([`scenario::Scenario::to_json`] /
//! [`scenario::Scenario::from_json`]) and parameter grids run as
//! deterministic [`scenario::Sweep`]s with splitmix-derived per-point
//! seeds. Because every grid point is a pure function of the spec and
//! its row-major index ([`scenario::Sweep::scenario_at`]), grids also
//! shard across processes and machines: the `hyperroute-grid` crate cuts
//! sweeps into serialisable slices, runs them on thread-pool or
//! subprocess-worker backends, and merges results byte-identical to
//! [`scenario::Sweep::run`]. Live runs are tapped through composable
//! [`observe`] hooks without touching the simulation's random draws.
//!
//! # Observability
//!
//! The [`observe::Observer`] trait is the engine's only tap: default
//! no-op hooks fire on every event, generation, hop (`on_hop`, with the
//! arc and its queue depth), escape-mode hop, drop, service end, and
//! packet delivery. Two observers compose as a tuple, and the contract
//! is strict **non-interference** — hooks receive values the engine
//! already computed, never influence an arc choice or a random draw, so
//! a run observed by anything is byte-identical to the unobserved run
//! (property-tested across every engine-backed topology and both
//! schedulers).
//!
//! On top of the hooks, the `hyperroute-telemetry` crate builds the
//! flight recorder (deterministically sampled per-packet hop traces,
//! exportable as NDJSON or Chrome `chrome://tracing` JSON) and the
//! histogram probe, whose [`telemetry::TelemetryExt`] — log-bucketed
//! [`telemetry::LogHistogram`]s of delay, queue wait, deflections and
//! escape-walk lengths, plus per-arc occupancy integrals and peak
//! depths in [`telemetry::ArcTelemetry`] — attaches to a
//! [`scenario::Report`] only through an explicit post-run call, keeping
//! unobserved baselines byte-identical.
//!
//! Wall-clock timing lives outside the engine, in the repository's
//! `perfbench/` harness (declared by `BENCHMARK.json`). Its traced mode
//! puts spans around public calls — scenario parse, topology build,
//! engine run, report serialisation, cache and grid operations — so no
//! timer sits in the event loop and timings never enter a `Report`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod butterfly_sim;
pub mod config;
pub mod engine;
pub mod equivalent_network;
pub mod graph_sim;
pub mod hypercube_sim;
pub mod metrics;
pub mod observe;
pub mod packet;
pub mod pipelined;
pub mod pool;
pub mod runner;
pub mod scenario;
pub mod stability;
pub mod telemetry;

pub use config::{ArrivalModel, ConfigError, ContentionPolicy, DestinationSpec, Scheme};
pub use metrics::DelayStats;
pub use observe::{NullObserver, Observer, TimeSeriesProbe};
pub use scenario::{
    Report, Scenario, ScenarioHash, Simulator, Sweep, Topology, ENGINE_FINGERPRINT,
};
