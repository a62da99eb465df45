//! The unified scenario API: one typed spec drives every topology.
//!
//! A [`Scenario`] bundles **what** is simulated ([`Topology`]), **which
//! traffic** hits it ([`Workload`]), **how contention is resolved**
//! ([`Policy`]) and **how the run is executed** ([`RunControl`]). The four
//! engines — hypercube packet simulator, butterfly packet simulator,
//! equivalent queueing networks `Q`/`R`, and the §2.3 pipelined scheme —
//! sit behind one [`Simulator`] trait, so every workload is expressed the
//! same way and new harness layers (sweeps, scenario files, CI grids) are
//! written once.
//!
//! Guarantees:
//!
//! * **Fallible construction.** [`ScenarioBuilder::build`] returns a
//!   structured [`ConfigError`] for every malformed spec — nothing panics
//!   until a deliberately-legacy entry point is used.
//! * **Bit-identical dispatch.** [`Scenario::run`] drives the exact same
//!   engines with the exact same RNG streams as the legacy per-simulator
//!   entry points; `tests/scenario_api.rs` proves byte-equal reports
//!   across every scheme × arrival model × contention policy ×
//!   discipline.
//! * **Serde round-trip.** Scenarios (and reports) serialise to JSON via
//!   `serde_json`; a parsed scenario reproduces its source's reports
//!   bit-exactly.
//! * **Deterministic sweeps.** [`Sweep`] expands named parameter grids in
//!   row-major order and derives a per-point seed with
//!   [`hyperroute_desim::splitmix64`], so grid results are reproducible
//!   and independent of the worker-thread schedule.
//!
//! ```
//! use hyperroute_core::scenario::{Scenario, Topology};
//!
//! let scenario = Scenario::builder(Topology::Hypercube { dim: 4 })
//!     .lambda(1.2)
//!     .p(0.5)
//!     .horizon(600.0)
//!     .warmup(100.0)
//!     .seed(7)
//!     .build()
//!     .expect("valid scenario");
//! let report = scenario.run().expect("runs to completion");
//! assert_eq!(report.generated, report.delivered);
//! ```

use crate::butterfly_sim::ButterflySim;
use crate::config::{
    ArrivalModel, ContentionPolicy, DestinationSpec, FaultFallback, FaultSpec, Scheme,
};
use crate::engine::EngineCfg;
use crate::equivalent_network::{Discipline, EqNetSim};
use crate::graph_sim::{graph_ext, sparse_ext, GraphDestination, GraphSim, GraphSpec};
use crate::hypercube_sim::HypercubeSim;
use crate::metrics::{DelayStats, MetricsCollector};
use crate::observe::{NullObserver, Observer};
use crate::pipelined::simulate_pipelined_observed;
use crate::runner::parallel_map;
use crate::telemetry::TelemetryExt;
use hyperroute_desim::{splitmix64, SchedulerKind};
use hyperroute_sparse::{
    expander, hyperbolic, scale_free, small_world, MAX_SPARSE_NODES, RADIUS_OFFSET_RANGE,
};
use hyperroute_topology::{
    debruijn::MAX_DEBRUIJN_DIM, fattree::MAX_LEVELS as MAX_FATTREE_LEVELS, ring::MAX_RING_NODES,
    torus::MAX_TORUS_NODES, Butterfly, DeBruijn, FatTree, Hypercube, LevelledNetwork, Ring,
    RoutingTopology, Torus,
};
use serde::{Deserialize, Serialize};

pub use crate::config::ConfigError;

/// Which system a [`Scenario`] simulates.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// The `d`-dimensional hypercube under a routing scheme (paper §3).
    Hypercube {
        /// Hypercube dimension `d` (1..=26).
        dim: usize,
    },
    /// The `d`-dimensional butterfly (paper §4); paths are unique, so the
    /// scheme is always greedy and contention is FIFO.
    Butterfly {
        /// Butterfly dimension `d` (1..=24).
        dim: usize,
    },
    /// An abstract levelled queueing network (paper §3.1 / §4.3 / Fig. 2)
    /// under FIFO or PS service ([`Policy::discipline`]).
    EqNet {
        /// Which concrete network to build.
        net: EqNetSpec,
        /// Record every departure epoch (for `B(t)` dominance checks).
        record_departures: bool,
        /// Track per-server occupancy histograms up to this many customers
        /// (0 disables tracking).
        occupancy_cap: usize,
    },
    /// The §2.3 non-greedy pipelined Valiant–Brebner scheme on the
    /// hypercube. Runs for a round count instead of a time horizon.
    Pipelined {
        /// Hypercube dimension `d` (1..=16).
        dim: usize,
        /// Number of routing rounds (≥ 2).
        rounds: usize,
    },
    /// The `n`-node ring under greedy shortest-way-around routing
    /// (Papillon-style; destinations default to uniform over all nodes,
    /// so the workload's `p` is ignored — skew with
    /// [`DestinationSpec::RingPowerLaw`] or [`DestinationSpec::NodePmf`]).
    Ring {
        /// Number of nodes (3..=2^26).
        nodes: usize,
        /// Whether counter-clockwise arcs exist (greedy then takes the
        /// shorter way around; ties break clockwise).
        bidirectional: bool,
    },
    /// The `k`-ary `d`-cube (torus) under dimension-ordered greedy
    /// routing — a trait-impl-only topology on the blanket
    /// [`GraphSpec`].
    Torus {
        /// Ring size `k` of every dimension (>= 3).
        radix: usize,
        /// Number of dimensions `d` (>= 1; `k^d <= 2^26` nodes).
        dim: usize,
    },
    /// The binary de Bruijn graph `B(2, n)` under shift-register greedy
    /// routing — constant degree 2, diameter `n`; also trait-impl-only.
    DeBruijn {
        /// Shift-register width `n` (1..=26; `2^n` nodes).
        dim: usize,
    },
    /// The `L`-level binary fat tree under up/down routing — `2^L`
    /// leaves inject, packets climb to the least common ancestor level
    /// and descend; also trait-impl-only. Two parallel up arcs per
    /// switch give every ascent a same-cost alternate, so Multipath and
    /// Retry route around most single faults with zero stretch.
    FatTree {
        /// Number of switching levels `L` above the leaves (1..=20;
        /// `2^L` leaves).
        levels: usize,
    },
    /// A Kleinberg small-world lattice: a `dims`-dimensional circular
    /// grid of side `side` plus `links` long-range contacts per node
    /// drawn from the harmonic law `P(ℓ) ∝ ℓ^{-alpha}`. Greedy routes on
    /// the lattice's circular L1 metric — sparse CSR, seeded generator
    /// (E28's Θ(log²n) regime at `alpha = dims`).
    SmallWorld {
        /// Lattice side per dimension (≥ 3; `side^dims ≤ 2^26`).
        side: u32,
        /// Lattice dimensionality (1..=4).
        dims: u32,
        /// Long-range contacts per node (0..=16).
        links: u32,
        /// Harmonic-law exponent (finite, ≥ 0; `alpha = dims` is the
        /// navigable point).
        alpha: f64,
        /// Generator seed (independent of the run seed).
        seed: u64,
    },
    /// A hyperbolic random graph (Krioukov et al.): nodes in the native
    /// disk of radius `R = 2 ln n + radius_offset`, connected below
    /// hyperbolic distance `R`. Greedy routes on the exact hyperbolic
    /// metric and can stall — the `LOCAL_MINIMUM`/`DEAD_END` outcome
    /// taxonomy is always reported (E29).
    Hyperbolic {
        /// Number of nodes (2..=2^26).
        nodes: u32,
        /// Radial density exponent (> 0, finite; degree law exponent is
        /// `2·alpha + 1`).
        alpha: f64,
        /// Added to the canonical disk radius `2 ln n` (in `-4..=4`,
        /// `hyperroute_sparse::RADIUS_OFFSET_RANGE`; negative densifies).
        radius_offset: f64,
        /// Generator seed (independent of the run seed).
        seed: u64,
    },
    /// An erased-configuration-model scale-free graph with power-law
    /// degree exponent `gamma`. No geometric embedding — greedy routes
    /// on the circular node-id metric, mostly to exercise the outcome
    /// taxonomy.
    ScaleFree {
        /// Number of nodes (4..=2^26).
        nodes: u32,
        /// Power-law exponent (> 1, finite).
        gamma: f64,
        /// Minimum degree of the law (1..=64, below `nodes`).
        min_degree: u32,
        /// Generator seed (independent of the run seed).
        seed: u64,
    },
    /// A seeded random `degree`-regular graph (an expander whp) via the
    /// erased configuration model; greedy routes on the circular node-id
    /// metric. Extends E27's fault-survivability comparison.
    Expander {
        /// Number of nodes (4..=2^26; `nodes · degree` even).
        nodes: u32,
        /// Uniform degree (3..=64, below `nodes`).
        degree: u32,
        /// Generator seed (independent of the run seed).
        seed: u64,
    },
}

impl Topology {
    /// Short name used in error messages and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Hypercube { .. } => "hypercube",
            Topology::Butterfly { .. } => "butterfly",
            Topology::EqNet { .. } => "eqnet",
            Topology::Pipelined { .. } => "pipelined",
            Topology::Ring { .. } => "ring",
            Topology::Torus { .. } => "torus",
            Topology::DeBruijn { .. } => "debruijn",
            Topology::FatTree { .. } => "fattree",
            Topology::SmallWorld { .. } => "smallworld",
            Topology::Hyperbolic { .. } => "hyperbolic",
            Topology::ScaleFree { .. } => "scalefree",
            Topology::Expander { .. } => "expander",
        }
    }
}

/// Concrete levelled network for [`Topology::EqNet`]. The workload's `λ`
/// and `p` parameterise the network's external rates and routing
/// probabilities.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EqNetSpec {
    /// Network `Q`: equivalent to the `d`-cube under greedy routing
    /// (paper §3.1, Fig. 1b).
    HypercubeQ {
        /// Hypercube dimension `d`.
        dim: usize,
    },
    /// Network `R`: equivalent to the `d`-dimensional butterfly
    /// (paper §4.3, Fig. 3b).
    ButterflyR {
        /// Butterfly dimension `d`.
        dim: usize,
    },
    /// The three-server network `G` of Lemma 9 (paper Fig. 2a). Ignores
    /// the workload's `λ` and `p`: all parameters are explicit.
    Fig2 {
        /// External arrival rate at `S1`.
        rate1: f64,
        /// External arrival rate at `S2`.
        rate2: f64,
        /// External arrival rate at `S3`.
        rate3: f64,
        /// Forwarding probability `S1 → S3`.
        q1: f64,
        /// Forwarding probability `S2 → S3`.
        q2: f64,
    },
}

impl EqNetSpec {
    /// Materialise the levelled network for a workload's `(λ, p)`.
    pub fn build(&self, lambda: f64, p: f64) -> LevelledNetwork {
        match *self {
            EqNetSpec::HypercubeQ { dim } => {
                LevelledNetwork::equivalent_q(Hypercube::new(dim), lambda, p)
            }
            EqNetSpec::ButterflyR { dim } => {
                LevelledNetwork::equivalent_r(Butterfly::new(dim), lambda, p)
            }
            EqNetSpec::Fig2 {
                rate1,
                rate2,
                rate3,
                q1,
                q2,
            } => LevelledNetwork::fig2_network(rate1, rate2, rate3, q1, q2),
        }
    }
}

/// The traffic a [`Scenario`] offers: arrival process, intensity, and
/// destination distribution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Per-node (hypercube/pipelined) or per-row (butterfly) Poisson
    /// generation rate `λ`; scales the external rates of an `EqNet`.
    pub lambda: f64,
    /// Bit-flip probability `p` of the Eq. (1) destination distribution.
    pub p: f64,
    /// Continuous (Poisson) or slotted-batch arrivals (§3.4).
    pub arrivals: ArrivalModel,
    /// Destination distribution: Eq. (1) bit-flips, an arbitrary
    /// translation-invariant mask pmf (§2.2; hypercube only), a
    /// weighted-node pmf, or a power-law ring demand (graph topologies).
    pub dest: DestinationSpec,
    /// Optional arc-failure mask (Angel et al.): dead arcs plus a
    /// dead-greedy-arc fallback. Supported on the graph-routed
    /// topologies (ring, torus, de Bruijn, greedy hypercube); `None`
    /// (the default, and what an absent JSON key parses to) is the
    /// fault-free network.
    pub faults: Option<FaultSpec>,
    /// Attach per-delivery stretch accounting (mean deflections,
    /// per-outcome hop stretch vs the initial greedy distance) to the
    /// graph report extension. `None`/absent (the default) keeps
    /// pre-existing reports byte-identical; only blanket-graph-spec
    /// topologies honour it.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stretch: Option<bool>,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            lambda: 1.0,
            p: 0.5,
            arrivals: ArrivalModel::Poisson,
            dest: DestinationSpec::BitFlip,
            faults: None,
            stretch: None,
        }
    }
}

/// How routing and contention decisions are made.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Policy {
    /// Routing scheme (hypercube only; the butterfly path is unique).
    pub scheme: Scheme,
    /// Which waiting packet an arc serves next (hypercube only).
    pub contention: ContentionPolicy,
    /// FIFO or PS service (equivalent networks only).
    pub discipline: Discipline,
}

/// Execution control: measurement window, determinism, backend.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunControl {
    /// Generation stops at this time (ignored by `Pipelined`, which runs
    /// for its round count).
    pub horizon: f64,
    /// Packets born before this time are not measured.
    pub warmup: f64,
    /// RNG seed; every run is a deterministic function of it.
    pub seed: u64,
    /// Future-event-list backend (bit-identical results either way).
    pub scheduler: SchedulerKind,
    /// After the horizon, keep serving until every in-flight packet is
    /// delivered. Disable for instability probes.
    pub drain: bool,
}

impl Default for RunControl {
    fn default() -> Self {
        RunControl {
            horizon: 1_000.0,
            warmup: 200.0,
            seed: 0x5CE9A810,
            scheduler: SchedulerKind::default(),
            drain: true,
        }
    }
}

/// One fully-specified simulation: topology + workload + policy + run
/// control. Construct through [`Scenario::builder`] (which validates) or
/// deserialise from a JSON scenario file with [`Scenario::from_json`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// What is simulated.
    pub topology: Topology,
    /// The offered traffic.
    pub workload: Workload,
    /// Routing / contention / service discipline choices.
    pub policy: Policy,
    /// Measurement window, seed, scheduler backend.
    pub run: RunControl,
}

impl Scenario {
    /// Start building a scenario for `topology` with default workload,
    /// policy and run control.
    pub fn builder(topology: Topology) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                topology,
                workload: Workload::default(),
                policy: Policy::default(),
                run: RunControl::default(),
            },
        }
    }

    /// Validate every field combination, returning the first problem.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let w = &self.workload;
        let pol = &self.policy;
        let unsupported = |feature: &str| {
            Err(ConfigError::Unsupported {
                topology: self.topology.name().to_string(),
                feature: feature.to_string(),
            })
        };
        match &self.topology {
            Topology::Hypercube { dim } => {
                if pol.discipline != Discipline::Fifo {
                    return unsupported("processor-sharing service (use Topology::EqNet)");
                }
                if let Some(faults) = &w.faults {
                    // The faulty hypercube routes through the blanket
                    // graph spec, which follows the trait's canonical
                    // greedy arcs and Eq.-(1) destinations only.
                    if pol.scheme != Scheme::Greedy {
                        return unsupported("non-greedy schemes under fault masks");
                    }
                    if w.dest != DestinationSpec::BitFlip {
                        return unsupported("custom destination pmfs under fault masks");
                    }
                    if *dim >= 1 && *dim <= 26 {
                        faults.validate(dim << dim)?;
                    }
                }
                // The exact checks `HypercubeSimConfig::check` runs, via
                // the shared borrowed-field helper — no config assembly
                // (which would clone a possibly-2^d-entry destination
                // pmf), no possibility of drift.
                crate::config::check_sim_fields(
                    self.dim(),
                    26,
                    w.lambda,
                    w.p,
                    self.run.horizon,
                    self.run.warmup,
                    w.arrivals,
                    Some(&w.dest),
                )
            }
            Topology::Butterfly { dim } => {
                if pol.scheme != Scheme::Greedy {
                    return unsupported("non-greedy schemes (butterfly paths are unique)");
                }
                if pol.contention != ContentionPolicy::Fifo {
                    return unsupported("non-FIFO contention");
                }
                if pol.discipline != Discipline::Fifo {
                    return unsupported("processor-sharing service (use Topology::EqNet)");
                }
                if w.dest != DestinationSpec::BitFlip {
                    return unsupported("custom destination pmfs");
                }
                if let Some(faults) = &w.faults {
                    // Greedy butterfly paths are unique, so the Detour
                    // fallback has no same-kind arc to progress on and
                    // Drop discards every packet whose unique path is
                    // cut. The ranked-alternate fallbacks recover by
                    // back-routing through a fresh pass instead.
                    if matches!(faults.fallback, FaultFallback::Detour | FaultFallback::Drop) {
                        return unsupported(
                            "the Detour and Drop fault fallbacks (greedy paths are unique; \
                             use the Multipath or Retry fallback, which back-routes through \
                             an extra pass)",
                        );
                    }
                    if *dim >= 1 && *dim <= 24 {
                        faults.validate(dim << (dim + 1))?;
                    }
                }
                crate::config::check_sim_fields(
                    self.dim(),
                    24,
                    w.lambda,
                    w.p,
                    self.run.horizon,
                    self.run.warmup,
                    w.arrivals,
                    None,
                )
            }
            Topology::EqNet { net, .. } => {
                if pol.scheme != Scheme::Greedy {
                    return unsupported("routing schemes (routing is Markovian)");
                }
                if w.faults.is_some() {
                    return unsupported("fault masks (servers, not arcs)");
                }
                if pol.contention != ContentionPolicy::Fifo {
                    return unsupported("contention policies (per-server discipline instead)");
                }
                if w.arrivals != ArrivalModel::Poisson {
                    return unsupported("slotted arrivals");
                }
                if w.dest != DestinationSpec::BitFlip {
                    return unsupported("custom destination pmfs");
                }
                if let EqNetSpec::HypercubeQ { dim } | EqNetSpec::ButterflyR { dim } = net {
                    if *dim < 1 || *dim > 20 {
                        return Err(ConfigError::Dimension {
                            dim: *dim,
                            min: 1,
                            max: 20,
                        });
                    }
                }
                crate::config::check_workload_window(
                    w.lambda,
                    w.p,
                    self.run.horizon,
                    self.run.warmup,
                    w.arrivals,
                )
            }
            Topology::Pipelined { .. } => {
                if pol.scheme != Scheme::Greedy {
                    return unsupported("schemes (rounds are routed as greedy batches)");
                }
                if w.faults.is_some() {
                    return unsupported("fault masks");
                }
                if pol.contention != ContentionPolicy::Fifo {
                    return unsupported("non-FIFO contention");
                }
                if pol.discipline != Discipline::Fifo {
                    return unsupported("processor-sharing service");
                }
                if w.arrivals != ArrivalModel::Poisson {
                    return unsupported("slotted arrivals");
                }
                if w.dest != DestinationSpec::BitFlip {
                    return unsupported("custom destination pmfs");
                }
                let Topology::Pipelined { dim, rounds } = &self.topology else {
                    unreachable!("matched above");
                };
                crate::pipelined::check_params(*dim, w.lambda, w.p, *rounds)
            }
            Topology::Ring {
                nodes,
                bidirectional,
            } => {
                if pol.scheme != Scheme::Greedy {
                    return unsupported("non-greedy schemes (ring paths are deterministic)");
                }
                if pol.discipline != Discipline::Fifo {
                    return unsupported("processor-sharing service (use Topology::EqNet)");
                }
                if matches!(w.dest, DestinationSpec::MaskPmf(_)) {
                    return unsupported("mask pmfs (use NodePmf or RingPowerLaw)");
                }
                if *nodes < 3 || *nodes > MAX_RING_NODES {
                    return Err(ConfigError::RingSize {
                        nodes: *nodes,
                        min: 3,
                        max: MAX_RING_NODES,
                    });
                }
                w.dest.validate_nodes(*nodes)?;
                if let Some(f) = &w.faults {
                    f.validate(if *bidirectional { 2 * nodes } else { *nodes })?;
                }
                crate::config::check_workload_window(
                    w.lambda,
                    w.p,
                    self.run.horizon,
                    self.run.warmup,
                    w.arrivals,
                )
            }
            Topology::Torus { radix, dim } => {
                if pol.scheme != Scheme::Greedy {
                    return unsupported("non-greedy schemes (torus paths are deterministic)");
                }
                if pol.discipline != Discipline::Fifo {
                    return unsupported("processor-sharing service (use Topology::EqNet)");
                }
                if matches!(
                    w.dest,
                    DestinationSpec::MaskPmf(_) | DestinationSpec::RingPowerLaw { .. }
                ) {
                    return unsupported("this destination law (use BitFlip=uniform or NodePmf)");
                }
                let Some(nodes) = torus_nodes(*radix, *dim) else {
                    return Err(ConfigError::TorusShape {
                        radix: *radix,
                        dim: *dim,
                    });
                };
                w.dest.validate_nodes(nodes)?;
                if let Some(f) = &w.faults {
                    f.validate(nodes * 2 * dim)?;
                }
                crate::config::check_workload_window(
                    w.lambda,
                    w.p,
                    self.run.horizon,
                    self.run.warmup,
                    w.arrivals,
                )
            }
            Topology::DeBruijn { dim } => {
                if pol.scheme != Scheme::Greedy {
                    return unsupported("non-greedy schemes (shift paths are deterministic)");
                }
                if pol.discipline != Discipline::Fifo {
                    return unsupported("processor-sharing service (use Topology::EqNet)");
                }
                if matches!(
                    w.dest,
                    DestinationSpec::MaskPmf(_) | DestinationSpec::RingPowerLaw { .. }
                ) {
                    return unsupported("this destination law (use BitFlip=uniform or NodePmf)");
                }
                if *dim < 1 || *dim > MAX_DEBRUIJN_DIM {
                    return Err(ConfigError::Dimension {
                        dim: *dim,
                        min: 1,
                        max: MAX_DEBRUIJN_DIM,
                    });
                }
                w.dest.validate_nodes(1 << dim)?;
                if let Some(f) = &w.faults {
                    f.validate((1 << (dim + 1)) - 2)?;
                }
                crate::config::check_workload_window(
                    w.lambda,
                    w.p,
                    self.run.horizon,
                    self.run.warmup,
                    w.arrivals,
                )
            }
            Topology::FatTree { levels } => {
                if pol.scheme != Scheme::Greedy {
                    return unsupported("non-greedy schemes (up/down paths are deterministic)");
                }
                if pol.discipline != Discipline::Fifo {
                    return unsupported("processor-sharing service (use Topology::EqNet)");
                }
                if w.dest != DestinationSpec::BitFlip {
                    return unsupported("custom destination pmfs (leaves are drawn uniformly)");
                }
                if *levels < 1 || *levels > MAX_FATTREE_LEVELS {
                    return Err(ConfigError::Dimension {
                        dim: *levels,
                        min: 1,
                        max: MAX_FATTREE_LEVELS,
                    });
                }
                if let Some(f) = &w.faults {
                    // 2·2^L up arcs and 2·2^L down arcs per boundary,
                    // over L boundaries: 4L·2^L arcs in total.
                    f.validate((4 * levels) << levels)?;
                }
                crate::config::check_workload_window(
                    w.lambda,
                    w.p,
                    self.run.horizon,
                    self.run.warmup,
                    w.arrivals,
                )
            }
            Topology::SmallWorld {
                side,
                dims,
                links,
                alpha,
                ..
            } => {
                self.check_sparse_common()?;
                check_generator_param(*side as f64, "side", 3.0, f64::MAX, "at least 3")?;
                check_generator_param(*dims as f64, "dims", 1.0, 4.0, "in 1..=4")?;
                check_generator_param(*links as f64, "links", 0.0, 16.0, "at most 16")?;
                check_generator_param(*alpha, "alpha", 0.0, f64::MAX, "finite and non-negative")?;
                if (*side as u64)
                    .checked_pow(*dims)
                    .is_none_or(|n| n > MAX_SPARSE_NODES as u64)
                {
                    return Err(ConfigError::GeneratorParam {
                        param: "side^dims".to_string(),
                        value: (*side as f64).powi(*dims as i32),
                        requirement: format!("at most {MAX_SPARSE_NODES} nodes"),
                    });
                }
                Ok(())
            }
            Topology::Hyperbolic {
                nodes,
                alpha,
                radius_offset,
                ..
            } => {
                self.check_sparse_common()?;
                check_sparse_nodes(*nodes, 2)?;
                check_generator_param(*alpha, "alpha", f64::MIN_POSITIVE, f64::MAX, "positive")?;
                check_generator_param(
                    *radius_offset,
                    "radius_offset",
                    *RADIUS_OFFSET_RANGE.start(),
                    *RADIUS_OFFSET_RANGE.end(),
                    "in -4..=4",
                )?;
                Ok(())
            }
            Topology::ScaleFree {
                nodes,
                gamma,
                min_degree,
                ..
            } => {
                self.check_sparse_common()?;
                check_sparse_nodes(*nodes, 4)?;
                check_generator_param(*gamma, "gamma", 1.0 + f64::EPSILON, f64::MAX, "above 1")?;
                check_generator_param(
                    *min_degree as f64,
                    "min_degree",
                    1.0,
                    64.0f64.min(*nodes as f64 - 1.0),
                    "in 1..=64 and below the node count",
                )?;
                Ok(())
            }
            Topology::Expander { nodes, degree, .. } => {
                self.check_sparse_common()?;
                check_sparse_nodes(*nodes, 4)?;
                check_generator_param(
                    *degree as f64,
                    "degree",
                    3.0,
                    64.0f64.min(*nodes as f64 - 1.0),
                    "in 3..=64 and below the node count",
                )?;
                if (*nodes as u64 * *degree as u64) % 2 == 1 {
                    return Err(ConfigError::GeneratorParam {
                        param: "nodes * degree".to_string(),
                        value: *nodes as f64 * *degree as f64,
                        requirement: "an even stub total".to_string(),
                    });
                }
                Ok(())
            }
        }
    }

    /// The workload/policy checks every sparse generated topology
    /// shares: greedy routing on the embedding metric, FIFO service,
    /// uniform destinations, and any fault mode except `Explicit`
    /// (whose dense arc indices are generator-dependent).
    fn check_sparse_common(&self) -> Result<(), ConfigError> {
        let w = &self.workload;
        let unsupported = |feature: &str| {
            Err(ConfigError::Unsupported {
                topology: self.topology.name().to_string(),
                feature: feature.to_string(),
            })
        };
        if self.policy.scheme != Scheme::Greedy {
            return unsupported("non-greedy schemes (greedy is the embedding metric)");
        }
        if self.policy.discipline != Discipline::Fifo {
            return unsupported("processor-sharing service (use Topology::EqNet)");
        }
        if w.dest != DestinationSpec::BitFlip {
            return unsupported("custom destination pmfs (destinations are uniform)");
        }
        if let Some(f) = &w.faults {
            if matches!(f.mode, crate::config::FaultMode::Explicit { .. }) {
                return unsupported(
                    "explicit dead-arc lists (arc indices are generator-dependent)",
                );
            }
            f.validate(usize::MAX)?;
        }
        crate::config::check_workload_window(
            w.lambda,
            w.p,
            self.run.horizon,
            self.run.warmup,
            w.arrivals,
        )
    }

    /// Instantiate the engine behind this scenario.
    pub fn into_simulator(&self) -> Result<Box<dyn Simulator>, ConfigError> {
        self.validate()?;
        let w = &self.workload;
        Ok(match &self.topology {
            // A fault mask sends the hypercube through the blanket graph
            // spec (trait-canonical greedy arcs + the detour/drop hook);
            // fault-free runs keep the packed fast-path spec.
            Topology::Hypercube { dim } if w.faults.is_some() => Box::new(GraphSim::from_parts(
                Hypercube::new(*dim),
                GraphDestination::FlipMask { dim: *dim, p: w.p },
                self,
                graph_ext,
            )),
            Topology::Hypercube { .. } => Box::new(HypercubeSim::from_scenario(self)),
            // A faulty butterfly likewise routes through the blanket
            // graph spec: level-0 rows inject, Eq.-(1) row flips pick a
            // level-`d` output, and the ranked-alternate fallbacks
            // (validation admits only Multipath/Retry here) back-route
            // around dead arcs via an extra pass.
            Topology::Butterfly { dim } if w.faults.is_some() => Box::new(GraphSim::from_parts(
                Butterfly::new(*dim),
                GraphDestination::RowFlip { dim: *dim, p: w.p },
                self,
                graph_ext,
            )),
            Topology::Butterfly { .. } => Box::new(ButterflySim::from_scenario(self)),
            Topology::EqNet { net, .. } => {
                let network = net.build(w.lambda, w.p);
                Box::new(EqNetSim::from_scenario(&network, self))
            }
            Topology::Pipelined { .. } => Box::new(PipelinedRunner {
                scenario: self.clone(),
            }),
            Topology::Ring {
                nodes,
                bidirectional,
            } => {
                let ring = Ring::new(*nodes, *bidirectional);
                // The legacy combination (uniform destinations, no
                // faults) keeps its byte-compatible RingExt; any new
                // workload feature reports the generic graph extension.
                let plain = w.faults.is_none() && w.dest == DestinationSpec::BitFlip;
                let ext = if plain { ring_ext } else { graph_ext };
                Box::new(GraphSim::from_parts(
                    ring,
                    graph_destination(&w.dest, *nodes),
                    self,
                    ext,
                ))
            }
            Topology::Torus { radix, dim } => {
                let torus = Torus::new(*radix, *dim);
                let dest = graph_destination(&w.dest, torus.num_nodes());
                Box::new(GraphSim::from_parts(torus, dest, self, graph_ext))
            }
            Topology::DeBruijn { dim } => Box::new(GraphSim::from_parts(
                DeBruijn::new(*dim),
                graph_destination(&w.dest, 1 << dim),
                self,
                graph_ext,
            )),
            Topology::FatTree { levels } => Box::new(GraphSim::from_parts(
                FatTree::new(*levels),
                // Only the 2^L leaves send and receive; internal
                // switches are transit-only.
                GraphDestination::LeafUniform(1 << levels),
                self,
                graph_ext,
            )),
            // The sparse generated topologies all route through the
            // blanket graph spec with the outcome-taxonomy extension:
            // metric greedy can stall even fault-free, so SUCCESS /
            // LOCAL_MINIMUM / DEAD_END is always reported.
            Topology::SmallWorld {
                side,
                dims,
                links,
                alpha,
                seed,
            } => Box::new(GraphSim::from_parts(
                small_world(*side, *dims, *links, *alpha, *seed),
                GraphDestination::Uniform,
                self,
                sparse_ext,
            )),
            Topology::Hyperbolic {
                nodes,
                alpha,
                radius_offset,
                seed,
            } => Box::new(GraphSim::from_parts(
                hyperbolic(*nodes, *alpha, *radius_offset, *seed),
                GraphDestination::Uniform,
                self,
                sparse_ext,
            )),
            Topology::ScaleFree {
                nodes,
                gamma,
                min_degree,
                seed,
            } => Box::new(GraphSim::from_parts(
                scale_free(*nodes, *gamma, *min_degree, *seed),
                GraphDestination::Uniform,
                self,
                sparse_ext,
            )),
            Topology::Expander {
                nodes,
                degree,
                seed,
            } => Box::new(GraphSim::from_parts(
                expander(*nodes, *degree, *seed),
                GraphDestination::Uniform,
                self,
                sparse_ext,
            )),
        })
    }

    /// Run the scenario to completion.
    pub fn run(&self) -> Result<Report, ConfigError> {
        // Monomorphised unobserved path: the engines' event loops see the
        // concrete `NullObserver`, not a `dyn` no-op per event.
        Ok(self.into_simulator()?.run_unobserved())
    }

    /// Run the scenario under a streaming [`Observer`]. The observer
    /// never changes the simulation; reports are bit-identical to
    /// [`Scenario::run`].
    pub fn run_observed(&self, obs: &mut dyn Observer) -> Result<Report, ConfigError> {
        Ok(self.into_simulator()?.run_boxed(obs))
    }

    /// Serialise to pretty JSON (the scenario-file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenarios always serialise")
    }

    /// Parse a scenario file and validate it.
    ///
    /// Parse failures carry the 1-based line and column of the offending
    /// byte, so file-driven harnesses (the `hyperroute-grid` corpus
    /// runner) can report `file:line:column` locations. Unknown keys are
    /// ignored, except the removed `run.workers`, which is rejected
    /// ([`ScenarioFileError::Removed`]) so an old file cannot silently
    /// run differently from what it asks for.
    pub fn from_json(text: &str) -> Result<Scenario, ScenarioFileError> {
        let doc = serde_json::parse(text).map_err(|e| ScenarioFileError::parse(text, e))?;
        if doc.get("run").and_then(|run| run.get("workers")).is_some() {
            return Err(ScenarioFileError::Removed {
                key: "run.workers",
                reason: "intra-run sharding was slower than one thread at every worker \
                         count measured, so every run is single-threaded; run independent \
                         scenarios in parallel through a sweep or the hyperroute-grid \
                         backends instead",
            });
        }
        let scenario: Scenario =
            serde_json::from_value(&doc).map_err(|e| ScenarioFileError::parse(text, e))?;
        scenario.validate().map_err(ScenarioFileError::Invalid)?;
        Ok(scenario)
    }

    /// Content hash of this scenario's **canonical form** — the exact
    /// [`Scenario::to_json`] rendering — folded with [`ENGINE_FINGERPRINT`].
    ///
    /// Because the hash is computed over the canonical re-rendering (not
    /// whatever JSON text the scenario was parsed from), two scenario
    /// files that differ only in field order, whitespace, or explicitly-
    /// `null` optional fields hash identically, while **any** semantic
    /// field change (a different seed, λ, scheduler, …) changes the
    /// key. Folding in the engine fingerprint invalidates every key when
    /// an engine change moves report bytes — a stale content-addressed
    /// cache can never serve reports from an older engine.
    pub fn canonical_hash(&self) -> ScenarioHash {
        let mut h = Fnv128::new();
        h.write(self.to_json().as_bytes());
        h.write(&[0]);
        h.write(ENGINE_FINGERPRINT.as_bytes());
        ScenarioHash(h.finish())
    }

    fn dim(&self) -> usize {
        match &self.topology {
            Topology::Hypercube { dim }
            | Topology::Butterfly { dim }
            | Topology::Pipelined { dim, .. } => *dim,
            Topology::EqNet { net, .. } => match net {
                EqNetSpec::HypercubeQ { dim } | EqNetSpec::ButterflyR { dim } => *dim,
                EqNetSpec::Fig2 { .. } => 0,
            },
            Topology::Ring { .. }
            | Topology::Torus { .. }
            | Topology::DeBruijn { .. }
            | Topology::FatTree { .. }
            | Topology::SmallWorld { .. }
            | Topology::Hyperbolic { .. }
            | Topology::ScaleFree { .. }
            | Topology::Expander { .. } => 0,
        }
    }
}

/// Fingerprint of every engine behaviour that can move report bytes.
///
/// [`Scenario::canonical_hash`] folds this string into the key, so a
/// content-addressed report cache (the `hyperroute-grid` service) is
/// invalidated wholesale whenever simulation output changes. **Bump the
/// version segment in the same PR as any intentional output change**
/// (the scenario-corpus baselines moving is the tell).
pub const ENGINE_FINGERPRINT: &str =
    "hyperroute-engine/v6 calendar+heap arrival-stream peek-prefetch blanket-graph \
     sparse-greedy escape-salt intra-shard";

/// The 128-bit content hash of a scenario's canonical form, as produced
/// by [`Scenario::canonical_hash`]. Displays as 32 lowercase hex digits
/// (the on-disk cache file stem).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScenarioHash(pub u128);

impl std::fmt::Display for ScenarioHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// FNV-1a, 128-bit variant: tiny, dependency-free, and stable across
/// platforms and std releases (unlike `DefaultHasher`), which is what a
/// cache shared between machines and CI runs needs. Not cryptographic —
/// the cache is a determinism optimisation, not a security boundary.
struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    fn new() -> Fnv128 {
        Fnv128 {
            state: Fnv128::OFFSET,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(Fnv128::PRIME);
        }
    }

    fn finish(&self) -> u128 {
        self.state
    }
}

/// Reject a sparse-generator parameter outside `[min, max]` (or not
/// finite) with a structured [`ConfigError::GeneratorParam`].
fn check_generator_param(
    value: f64,
    param: &str,
    min: f64,
    max: f64,
    requirement: &str,
) -> Result<(), ConfigError> {
    if value.is_finite() && (min..=max).contains(&value) {
        Ok(())
    } else {
        Err(ConfigError::GeneratorParam {
            param: param.to_string(),
            value,
            requirement: requirement.to_string(),
        })
    }
}

/// Reject a sparse node count below `min` or above the CSR ceiling.
fn check_sparse_nodes(nodes: u32, min: u32) -> Result<(), ConfigError> {
    check_generator_param(
        nodes as f64,
        "nodes",
        min as f64,
        MAX_SPARSE_NODES as f64,
        "within the sparse node ceiling",
    )
}

/// Node count of a `k`-ary `d`-cube, or `None` when the shape is out of
/// range (`k < 3`, `d < 1`, or more than `2^26` nodes).
fn torus_nodes(radix: usize, dim: usize) -> Option<usize> {
    if radix < 3 || dim < 1 {
        return None;
    }
    let mut nodes = 1usize;
    for _ in 0..dim {
        nodes = nodes.checked_mul(radix).filter(|&n| n <= MAX_TORUS_NODES)?;
    }
    Some(nodes)
}

/// Lower a validated [`DestinationSpec`] into the graph engine's sampler
/// (`BitFlip` means uniform on node-addressed topologies; `MaskPmf` never
/// reaches this — validation rejects it).
fn graph_destination(dest: &DestinationSpec, nodes: usize) -> GraphDestination {
    match dest {
        DestinationSpec::BitFlip => GraphDestination::Uniform,
        DestinationSpec::MaskPmf(_) => unreachable!("mask pmfs are hypercube-only"),
        DestinationSpec::NodePmf(pmf) => GraphDestination::from_node_pmf(pmf),
        DestinationSpec::RingPowerLaw { alpha } => GraphDestination::ring_power_law(nodes, *alpha),
    }
}

/// The ring's byte-compatible report extension over the blanket graph
/// spec: identical numbers to the retired hand-written `RingSpec` (the
/// per-direction arrival sums fall out of the per-arc counters — even
/// dense indices are clockwise on bidirectional rings).
fn ring_ext(spec: &GraphSpec<Ring>, cfg: &EngineCfg, collector: &MetricsCollector) -> ReportExt {
    let ring = *spec.topology();
    let span = cfg.horizon - cfg.warmup;
    let arcs_per_direction = ring.num_nodes() as f64;
    let (mut cw, mut ccw) = (0u64, 0u64);
    for (arc, count) in spec.arc_arrivals().iter().enumerate() {
        if !ring.bidirectional() || arc & 1 == 0 {
            cw += count as u64;
        } else {
            ccw += count as u64;
        }
    }
    ReportExt::Ring(RingExt {
        rho: ring.load_factor(cfg.lambda),
        mean_hops: collector.mean_hops(),
        zero_hop_fraction: collector.zero_hop_fraction(),
        clockwise_arc_rate: cw as f64 / (span * arcs_per_direction),
        counter_clockwise_arc_rate: if ring.bidirectional() {
            ccw as f64 / (span * arcs_per_direction)
        } else {
            0.0
        },
    })
}

/// Why a scenario file was rejected: malformed JSON, or well-formed JSON
/// describing an invalid combination. Keeping the two sources distinct
/// (and the [`ConfigError`] structured) lets file-driven harnesses report
/// precisely.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioFileError {
    /// The text is not valid JSON for a `Scenario`.
    Parse {
        /// The underlying JSON error.
        error: serde_json::Error,
        /// 1-based line of the offending byte. Shape errors (valid JSON
        /// that is not a `Scenario`) have no position and report `1:1`.
        line: usize,
        /// 1-based column (in bytes) of the offending byte.
        column: usize,
    },
    /// The parsed scenario fails validation.
    Invalid(ConfigError),
    /// The file sets a key that no longer exists.
    Removed {
        /// Dotted path of the key, e.g. `run.workers`.
        key: &'static str,
        /// Why it was removed and what to use instead.
        reason: &'static str,
    },
}

impl ScenarioFileError {
    /// Wrap a JSON error, resolving its byte offset into the 1-based
    /// line/column of `text` it points at.
    pub fn parse(text: &str, error: serde_json::Error) -> ScenarioFileError {
        let (line, column) = line_column(text, error.offset);
        ScenarioFileError::Parse {
            error,
            line,
            column,
        }
    }
}

/// 1-based (line, byte-column) of byte `offset` in `text`; offsets past
/// the end resolve to one past the final byte.
fn line_column(text: &str, offset: usize) -> (usize, usize) {
    let offset = offset.min(text.len());
    let before = &text.as_bytes()[..offset];
    let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
    let line_start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |p| p + 1);
    (line, offset - line_start + 1)
}

impl std::fmt::Display for ScenarioFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioFileError::Parse {
                error,
                line,
                column,
            } => write!(
                f,
                "scenario file does not parse at line {line}, column {column}: {error}"
            ),
            ScenarioFileError::Invalid(e) => write!(f, "scenario file is invalid: {e}"),
            ScenarioFileError::Removed { key, reason } => {
                write!(f, "scenario file sets `{key}`, which was removed: {reason}")
            }
        }
    }
}

impl std::error::Error for ScenarioFileError {}

/// Fluent fallible construction of a [`Scenario`].
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Set the per-node/per-row arrival rate `λ`.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.scenario.workload.lambda = lambda;
        self
    }

    /// Set the bit-flip probability `p`.
    pub fn p(mut self, p: f64) -> Self {
        self.scenario.workload.p = p;
        self
    }

    /// Set the arrival model.
    pub fn arrivals(mut self, arrivals: ArrivalModel) -> Self {
        self.scenario.workload.arrivals = arrivals;
        self
    }

    /// Set the destination distribution.
    pub fn dest(mut self, dest: DestinationSpec) -> Self {
        self.scenario.workload.dest = dest;
        self
    }

    /// Set (or clear) the arc-failure mask.
    pub fn faults(mut self, faults: Option<FaultSpec>) -> Self {
        self.scenario.workload.faults = faults;
        self
    }

    /// Enable per-delivery stretch accounting in the graph extension.
    pub fn stretch(mut self, stretch: bool) -> Self {
        self.scenario.workload.stretch = Some(stretch);
        self
    }

    /// Set the routing scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scenario.policy.scheme = scheme;
        self
    }

    /// Set the contention policy.
    pub fn contention(mut self, contention: ContentionPolicy) -> Self {
        self.scenario.policy.contention = contention;
        self
    }

    /// Set the service discipline (equivalent networks).
    pub fn discipline(mut self, discipline: Discipline) -> Self {
        self.scenario.policy.discipline = discipline;
        self
    }

    /// Set the generation horizon.
    pub fn horizon(mut self, horizon: f64) -> Self {
        self.scenario.run.horizon = horizon;
        self
    }

    /// Set the warm-up cutoff.
    pub fn warmup(mut self, warmup: f64) -> Self {
        self.scenario.run.warmup = warmup;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.run.seed = seed;
        self
    }

    /// Select the future-event-list backend.
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scenario.run.scheduler = scheduler;
        self
    }

    /// Enable or disable the post-horizon drain.
    pub fn drain(mut self, drain: bool) -> Self {
        self.scenario.run.drain = drain;
        self
    }

    /// Validate and produce the scenario.
    pub fn build(self) -> Result<Scenario, ConfigError> {
        self.scenario.validate()?;
        Ok(self.scenario)
    }
}

// ---------------------------------------------------------------------
// The unified report.
// ---------------------------------------------------------------------

/// Topology-independent summary of one scenario run, with a typed
/// per-topology extension in [`Report::ext`].
///
/// `PartialEq` is hand-written and bit-exact on every float (NaN equals
/// NaN), so differential tests can assert `==` between scenario and
/// legacy runs — including pipelined reports, whose fields without a
/// meaningful value are NaN and would poison a derived IEEE comparison.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Report {
    /// Per-packet delay statistics over the measurement window.
    pub delay: DelayStats,
    /// Time-averaged packets in the system over the measurement window.
    pub mean_in_system: f64,
    /// Peak packets in the system.
    pub peak_in_system: f64,
    /// Delivered packets per unit time in the measurement window.
    pub throughput: f64,
    /// Relative Little's-law discrepancy (NaN where not meaningful).
    pub little_error: f64,
    /// Total packets generated.
    pub generated: u64,
    /// Total packets delivered.
    pub delivered: u64,
    /// Discrete events processed (0 for the round-driven pipelined
    /// scheme, which has no event queue).
    pub events: u64,
    /// Topology-specific measurements.
    pub ext: ReportExt,
    /// Opt-in telemetry histograms and per-arc load, attached **after**
    /// the run by `hyperroute-telemetry`'s probe; absent keys serialise
    /// to nothing, keeping unobserved baselines byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub telemetry: Option<TelemetryExt>,
}

/// The per-topology extension of a [`Report`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum ReportExt {
    /// Hypercube-only measurements.
    Hypercube(HypercubeExt),
    /// Butterfly-only measurements.
    Butterfly(ButterflyExt),
    /// Equivalent-network-only measurements.
    EqNet(EqNetExt),
    /// Pipelined-scheme-only measurements.
    Pipelined(PipelinedExt),
    /// Ring-only measurements.
    Ring(RingExt),
    /// Generic graph-topology measurements (torus, de Bruijn, and any
    /// ring/hypercube run with fault masks or skewed destinations).
    Graph(GraphExt),
}

/// Hypercube-specific fields of a [`Report`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HypercubeExt {
    /// Load factor ρ = λp.
    pub rho: f64,
    /// Mean hops per measured packet (≈ dp for greedy, Lemma 1).
    pub mean_hops: f64,
    /// Fraction of measured packets with destination = origin.
    pub zero_hop_fraction: f64,
    /// Measured per-arc arrival rate for each dimension (Prop. 5).
    pub per_dim_arc_rate: Vec<f64>,
    /// Time-averaged packets at an arc of each dimension (Prop. 13).
    pub per_dim_mean_queue: Vec<f64>,
}

/// Butterfly-specific fields of a [`Report`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ButterflyExt {
    /// Load factor `λ·max{p, 1-p}` (Eq. (17)).
    pub rho: f64,
    /// Mean vertical arcs per packet (≈ dp).
    pub mean_vertical_hops: f64,
    /// Per-arc arrival rate of straight arcs, per level (Prop. 15).
    pub straight_rate_per_level: Vec<f64>,
    /// Per-arc arrival rate of vertical arcs, per level (Prop. 15).
    pub vertical_rate_per_level: Vec<f64>,
}

/// Equivalent-network-specific fields of a [`Report`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EqNetExt {
    /// All departure epochs in time order (empty unless
    /// `record_departures`).
    pub departures: Vec<f64>,
    /// Per-server fraction of time at each occupancy below the cap
    /// (empty unless `occupancy_cap > 0`).
    pub occupancy_fractions: Vec<Vec<f64>>,
}

/// Pipelined-scheme-specific fields of a [`Report`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PipelinedExt {
    /// Mean round length (empirical `R·d`).
    pub mean_round_length: f64,
    /// Empirical round constant `R` (mean round length / d).
    pub round_constant: f64,
    /// Mean stored backlog at round starts.
    pub mean_backlog: f64,
    /// Backlog remaining after the last round.
    pub final_backlog: u64,
    /// Least-squares backlog growth per round (positive ⇒ unstable).
    pub backlog_slope_per_round: f64,
}

impl PipelinedExt {
    /// Heuristic instability verdict: backlog grows by a noticeable
    /// fraction of the per-round input.
    pub fn looks_unstable(&self, per_round_input: f64) -> bool {
        self.backlog_slope_per_round > 0.1 * per_round_input
    }
}

/// Ring-specific fields of a [`Report`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RingExt {
    /// Per-arc load factor `λ·E[hops per direction]` (the ring's analogue
    /// of `ρ = λp`; stability needs it below 1).
    pub rho: f64,
    /// Mean hops per measured packet (`(n-1)/2` clockwise-only, `≈ n/4`
    /// bidirectional, under uniform destinations).
    pub mean_hops: f64,
    /// Fraction of measured packets with destination = origin (`1/n`).
    pub zero_hop_fraction: f64,
    /// Measured per-arc arrival rate over the clockwise arcs.
    pub clockwise_arc_rate: f64,
    /// Measured per-arc arrival rate over the counter-clockwise arcs
    /// (0 on unidirectional rings).
    pub counter_clockwise_arc_rate: f64,
}

/// Graph-topology fields of a [`Report`] — what every blanket-spec run
/// measures, including the delivered/dropped split of fault-mask
/// workloads.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GraphExt {
    /// Number of nodes.
    pub nodes: u64,
    /// Number of directed arcs (dense index space).
    pub arcs: u64,
    /// Number of dead arcs in the fault mask (0 without one).
    pub dead_arcs: u64,
    /// Mean hops per measured delivered packet.
    pub mean_hops: f64,
    /// Fraction of measured deliveries with destination = origin.
    pub zero_hop_fraction: f64,
    /// Mean in-window packet-arrival rate over the **live** arcs.
    pub mean_arc_rate: f64,
    /// The busiest arc's in-window arrival rate.
    pub max_arc_rate: f64,
    /// Packets dropped, all time (`generated = delivered + dropped` after
    /// a drained run).
    pub dropped: u64,
    /// Dropped packets born inside the measurement window.
    pub dropped_in_window: u64,
    /// Measured deliveries / (measured deliveries + measured drops) — the
    /// fault-tolerance headline; NaN when nothing was measured.
    pub delivery_fraction: f64,
    /// Route-outcome taxonomy (`SUCCESS | LOCAL_MINIMUM | DEAD_END` plus
    /// escape-recovery counters). Always present on sparse generated
    /// topologies; on dense topologies only under the Escape fallback.
    /// Absent (`None`) keys serialise to nothing, keeping pre-existing
    /// baselines byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub outcomes: Option<OutcomeExt>,
    /// Per-delivery stretch accounting; present iff
    /// [`Workload::stretch`] asked for it.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stretch: Option<StretchExt>,
}

/// How measured routes ended: the `SUCCESS | LOCAL_MINIMUM | DEAD_END`
/// taxonomy of greedy routing on a metric embedding, plus the
/// escape-recovery counters of the GOAFR-style fallback.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OutcomeExt {
    /// Measured packets delivered (`SUCCESS`).
    pub success: u64,
    /// Measured packets dropped at a metric local minimum — a live
    /// out-neighbour existed but none improved (includes escape-TTL
    /// exhaustion).
    pub local_minimum: u64,
    /// Measured packets dropped with **no** live out-arc at all.
    pub dead_end: u64,
    /// Measured deliveries that entered escape mode at least once and
    /// still made it.
    pub recovered: u64,
    /// Mean paid (non-improving) escape hops per recovered delivery
    /// (NaN when nothing recovered).
    pub mean_escape_hops: f64,
}

/// Per-delivery stretch accounting over the measurement window: hops
/// relative to the packet's initial greedy distance, split by whether
/// the route ever deflected (paid a non-improving hop).
///
/// On the dense topologies the initial distance **is** the shortest
/// hop count, so `mean_stretch` is path stretch in the usual sense. On
/// the sparse generators the denominator is the quantised *embedding*
/// distance (ring offset, scaled hyperbolic distance), which is not a
/// hop count — the values are deterministic and comparable across runs
/// of the same scenario, but for true hop stretch on sparse graphs use
/// the BFS-baselined measurements in experiment E29.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StretchExt {
    /// Mean `hops / initial_distance` over measured deliveries.
    pub mean_stretch: f64,
    /// Mean paid deflections per measured delivery.
    pub mean_deflections: f64,
    /// Fraction of measured deliveries with at least one deflection.
    pub deflected_fraction: f64,
    /// Mean stretch over never-deflected deliveries (NaN if none).
    pub clean_stretch: f64,
    /// Mean stretch over deflected deliveries (NaN if none).
    pub deflected_stretch: f64,
    /// Mean `hops - initial_distance` over measured deliveries.
    pub mean_excess_hops: f64,
}

/// Bit-exact float comparison that also equates any two non-finite
/// values (a JSON round-trip maps every NaN *and infinity* through
/// `null` to the canonical `f64::NAN`, so non-finite values are
/// indistinguishable after persisting a report).
pub(crate) fn f64_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (!a.is_finite() && !b.is_finite())
}

pub(crate) fn f64_slice_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| f64_eq(x, y))
}

impl PartialEq for Report {
    fn eq(&self, other: &Self) -> bool {
        self.delay == other.delay
            && f64_eq(self.mean_in_system, other.mean_in_system)
            && f64_eq(self.peak_in_system, other.peak_in_system)
            && f64_eq(self.throughput, other.throughput)
            && f64_eq(self.little_error, other.little_error)
            && self.generated == other.generated
            && self.delivered == other.delivered
            && self.events == other.events
            && self.ext == other.ext
            && self.telemetry == other.telemetry
    }
}

impl PartialEq for ReportExt {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ReportExt::Hypercube(a), ReportExt::Hypercube(b)) => a == b,
            (ReportExt::Butterfly(a), ReportExt::Butterfly(b)) => a == b,
            (ReportExt::EqNet(a), ReportExt::EqNet(b)) => a == b,
            (ReportExt::Pipelined(a), ReportExt::Pipelined(b)) => a == b,
            (ReportExt::Ring(a), ReportExt::Ring(b)) => a == b,
            (ReportExt::Graph(a), ReportExt::Graph(b)) => a == b,
            _ => false,
        }
    }
}

impl PartialEq for GraphExt {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.arcs == other.arcs
            && self.dead_arcs == other.dead_arcs
            && f64_eq(self.mean_hops, other.mean_hops)
            && f64_eq(self.zero_hop_fraction, other.zero_hop_fraction)
            && f64_eq(self.mean_arc_rate, other.mean_arc_rate)
            && f64_eq(self.max_arc_rate, other.max_arc_rate)
            && self.dropped == other.dropped
            && self.dropped_in_window == other.dropped_in_window
            && f64_eq(self.delivery_fraction, other.delivery_fraction)
            && self.outcomes == other.outcomes
            && self.stretch == other.stretch
    }
}

impl PartialEq for OutcomeExt {
    fn eq(&self, other: &Self) -> bool {
        self.success == other.success
            && self.local_minimum == other.local_minimum
            && self.dead_end == other.dead_end
            && self.recovered == other.recovered
            && f64_eq(self.mean_escape_hops, other.mean_escape_hops)
    }
}

impl PartialEq for StretchExt {
    fn eq(&self, other: &Self) -> bool {
        f64_eq(self.mean_stretch, other.mean_stretch)
            && f64_eq(self.mean_deflections, other.mean_deflections)
            && f64_eq(self.deflected_fraction, other.deflected_fraction)
            && f64_eq(self.clean_stretch, other.clean_stretch)
            && f64_eq(self.deflected_stretch, other.deflected_stretch)
            && f64_eq(self.mean_excess_hops, other.mean_excess_hops)
    }
}

impl PartialEq for RingExt {
    fn eq(&self, other: &Self) -> bool {
        f64_eq(self.rho, other.rho)
            && f64_eq(self.mean_hops, other.mean_hops)
            && f64_eq(self.zero_hop_fraction, other.zero_hop_fraction)
            && f64_eq(self.clockwise_arc_rate, other.clockwise_arc_rate)
            && f64_eq(
                self.counter_clockwise_arc_rate,
                other.counter_clockwise_arc_rate,
            )
    }
}

impl PartialEq for HypercubeExt {
    fn eq(&self, other: &Self) -> bool {
        f64_eq(self.rho, other.rho)
            && f64_eq(self.mean_hops, other.mean_hops)
            && f64_eq(self.zero_hop_fraction, other.zero_hop_fraction)
            && f64_slice_eq(&self.per_dim_arc_rate, &other.per_dim_arc_rate)
            && f64_slice_eq(&self.per_dim_mean_queue, &other.per_dim_mean_queue)
    }
}

impl PartialEq for ButterflyExt {
    fn eq(&self, other: &Self) -> bool {
        f64_eq(self.rho, other.rho)
            && f64_eq(self.mean_vertical_hops, other.mean_vertical_hops)
            && f64_slice_eq(
                &self.straight_rate_per_level,
                &other.straight_rate_per_level,
            )
            && f64_slice_eq(
                &self.vertical_rate_per_level,
                &other.vertical_rate_per_level,
            )
    }
}

impl PartialEq for EqNetExt {
    fn eq(&self, other: &Self) -> bool {
        f64_slice_eq(&self.departures, &other.departures)
            && self.occupancy_fractions.len() == other.occupancy_fractions.len()
            && self
                .occupancy_fractions
                .iter()
                .zip(&other.occupancy_fractions)
                .all(|(a, b)| f64_slice_eq(a, b))
    }
}

impl PartialEq for PipelinedExt {
    fn eq(&self, other: &Self) -> bool {
        f64_eq(self.mean_round_length, other.mean_round_length)
            && f64_eq(self.round_constant, other.round_constant)
            && f64_eq(self.mean_backlog, other.mean_backlog)
            && self.final_backlog == other.final_backlog
            && f64_eq(self.backlog_slope_per_round, other.backlog_slope_per_round)
    }
}

impl Report {
    /// The hypercube extension, if this report came from a hypercube run.
    pub fn hypercube(&self) -> Option<&HypercubeExt> {
        match &self.ext {
            ReportExt::Hypercube(ext) => Some(ext),
            _ => None,
        }
    }

    /// The butterfly extension, if any.
    pub fn butterfly(&self) -> Option<&ButterflyExt> {
        match &self.ext {
            ReportExt::Butterfly(ext) => Some(ext),
            _ => None,
        }
    }

    /// The equivalent-network extension, if any.
    pub fn eqnet(&self) -> Option<&EqNetExt> {
        match &self.ext {
            ReportExt::EqNet(ext) => Some(ext),
            _ => None,
        }
    }

    /// The pipelined extension, if any.
    pub fn pipelined(&self) -> Option<&PipelinedExt> {
        match &self.ext {
            ReportExt::Pipelined(ext) => Some(ext),
            _ => None,
        }
    }

    /// The ring extension, if any.
    pub fn ring(&self) -> Option<&RingExt> {
        match &self.ext {
            ReportExt::Ring(ext) => Some(ext),
            _ => None,
        }
    }

    /// The generic graph extension, if any.
    pub fn graph(&self) -> Option<&GraphExt> {
        match &self.ext {
            ReportExt::Graph(ext) => Some(ext),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Uniform engine dispatch.
// ---------------------------------------------------------------------

/// A fully-constructed simulation engine, ready to run once.
///
/// Implemented by all four engines; [`Scenario::into_simulator`] is the
/// only constructor the unified API needs. The `Box<Self>` receiver keeps
/// the trait object-safe while letting engines consume themselves (their
/// legacy `run` methods take `self` by value).
pub trait Simulator {
    /// Drive the simulation to completion under `obs` and summarise.
    fn run_boxed(self: Box<Self>, obs: &mut dyn Observer) -> Report;

    /// Drive the simulation to completion unobserved.
    ///
    /// Separate from [`Simulator::run_boxed`] so implementations
    /// monomorphise their event loop over the concrete [`NullObserver`]
    /// (which compiles away) instead of paying a per-event virtual call
    /// to a no-op — `Scenario::run` goes through this path.
    fn run_unobserved(self: Box<Self>) -> Report;
}

impl Simulator for HypercubeSim {
    fn run_boxed(self: Box<Self>, obs: &mut dyn Observer) -> Report {
        self.run_observed(&mut &mut *obs)
    }

    fn run_unobserved(self: Box<Self>) -> Report {
        self.run()
    }
}

impl Simulator for ButterflySim {
    fn run_boxed(self: Box<Self>, obs: &mut dyn Observer) -> Report {
        self.run_observed(&mut &mut *obs)
    }

    fn run_unobserved(self: Box<Self>) -> Report {
        self.run()
    }
}

impl<T: RoutingTopology> Simulator for GraphSim<T> {
    fn run_boxed(self: Box<Self>, obs: &mut dyn Observer) -> Report {
        self.run_observed(&mut &mut *obs)
    }

    fn run_unobserved(self: Box<Self>) -> Report {
        self.run()
    }
}

impl Simulator for EqNetSim {
    fn run_boxed(self: Box<Self>, obs: &mut dyn Observer) -> Report {
        self.run_observed(&mut &mut *obs)
    }

    fn run_unobserved(self: Box<Self>) -> Report {
        self.run()
    }
}

/// Adapter running the round-driven pipelined scheme behind the
/// [`Simulator`] trait.
struct PipelinedRunner {
    scenario: Scenario,
}

impl Simulator for PipelinedRunner {
    fn run_boxed(self: Box<Self>, obs: &mut dyn Observer) -> Report {
        simulate_pipelined_observed(&self.scenario, &mut &mut *obs)
    }

    fn run_unobserved(self: Box<Self>) -> Report {
        simulate_pipelined_observed(&self.scenario, &mut NullObserver)
    }
}

// ---------------------------------------------------------------------
// Deterministic sweeps.
// ---------------------------------------------------------------------

/// A parameter a [`Sweep`] axis can vary. Numeric grids are `f64`;
/// integer-valued parameters round to the nearest integer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepParam {
    /// Vary [`Workload::lambda`].
    Lambda,
    /// Vary [`Workload::p`].
    P,
    /// Vary the topology dimension (hypercube/butterfly/pipelined/eqnet).
    Dim,
    /// Vary [`RunControl::horizon`] (warm-up stays fixed).
    Horizon,
    /// Vary the pipelined round count.
    Rounds,
    /// Vary the sparse generator's law exponent: the small-world
    /// harmonic `alpha`, the hyperbolic radial `alpha`, or the
    /// scale-free `gamma`.
    Alpha,
}

/// One named grid axis of a [`Sweep`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Axis {
    /// Which parameter this axis varies.
    pub param: SweepParam,
    /// The grid values, in sweep order.
    pub values: Vec<f64>,
}

impl Axis {
    /// Axis over explicit values.
    pub fn new(param: SweepParam, values: Vec<f64>) -> Axis {
        Axis { param, values }
    }
}

/// A declarative parameter sweep: a base [`Scenario`] plus named grid
/// axes, expanded in row-major order (the **last** axis varies fastest).
///
/// With [`Sweep::derive_seeds`] set (the default), grid point `i` runs
/// with seed `splitmix64(base_seed + (i+1)·φ64)` — deterministic,
/// collision-free across points (splitmix64 is a bijection), and
/// independent of the thread schedule. Disable it to run every point with
/// the base seed (common-random-numbers comparisons).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Sweep {
    /// The scenario every grid point starts from.
    pub base: Scenario,
    /// The grid axes (row-major expansion, last axis fastest).
    pub axes: Vec<Axis>,
    /// Derive a distinct per-point seed from the base seed and grid index
    /// (`true`), or reuse the base seed everywhere (`false`).
    pub derive_seeds: bool,
}

/// The odd constant `⌊2^64/φ⌋` used by splitmix-style sequence seeding.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl Sweep {
    /// Sweep over `base` with the given axes and derived per-point seeds.
    pub fn new(base: Scenario, axes: Vec<Axis>) -> Sweep {
        Sweep {
            base,
            axes,
            derive_seeds: true,
        }
    }

    /// Number of grid points (product of axis lengths).
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Whether the grid is empty (any axis without values).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The seed grid point `index` runs with.
    pub fn seed_for(&self, index: usize) -> u64 {
        if self.derive_seeds {
            splitmix64(
                self.base
                    .run
                    .seed
                    .wrapping_add((index as u64 + 1).wrapping_mul(GOLDEN_GAMMA)),
            )
        } else {
            self.base.run.seed
        }
    }

    /// Expand the grid into validated scenarios, in row-major order.
    pub fn scenarios(&self) -> Result<Vec<Scenario>, ConfigError> {
        self.slice_scenarios(0, self.len())
    }

    /// The validated scenario at grid point `index` (row-major), computed
    /// directly from the index without expanding the rest of the grid —
    /// the random-access hook distributed executors use to materialise one
    /// point of a sliced campaign.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    pub fn scenario_at(&self, index: usize) -> Result<Scenario, ConfigError> {
        assert!(
            index < self.len(),
            "grid index {index} out of range (grid has {} points)",
            self.len()
        );
        let mut s = self.base.clone();
        // Row-major decode: last axis varies fastest.
        let mut rest = index;
        let mut value_idx = vec![0usize; self.axes.len()];
        for pos in (0..self.axes.len()).rev() {
            let n = self.axes[pos].values.len();
            value_idx[pos] = rest % n;
            rest /= n;
        }
        for (axis, &vi) in self.axes.iter().zip(&value_idx) {
            apply_param(&mut s, axis.param, axis.values[vi])?;
        }
        s.run.seed = self.seed_for(index);
        s.validate()?;
        Ok(s)
    }

    /// Expand the contiguous sub-grid `start..start + len` (row-major
    /// order) into validated scenarios — the slice-extraction hook behind
    /// `hyperroute-grid`'s `GridSlice` jobs. Equivalent to
    /// `self.scenarios()?[start..start + len]` without expanding points
    /// outside the slice.
    ///
    /// # Panics
    ///
    /// Panics when `start + len` overflows the grid.
    pub fn slice_scenarios(&self, start: usize, len: usize) -> Result<Vec<Scenario>, ConfigError> {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len()),
            "slice {start}..{} out of range (grid has {} points)",
            start + len,
            self.len()
        );
        (start..start + len).map(|i| self.scenario_at(i)).collect()
    }

    /// Run every grid point (fanning out over `threads` workers; 0 means
    /// hardware parallelism) and return reports in grid order.
    pub fn run(&self, threads: usize) -> Result<Vec<Report>, ConfigError> {
        let scenarios = self.scenarios()?;
        // Validation happened above, so per-point failures are impossible;
        // unwrap inside the workers keeps the output shape simple.
        Ok(parallel_map(scenarios, threads, |s| {
            s.run().expect("pre-validated scenario")
        }))
    }
}

fn apply_param(s: &mut Scenario, param: SweepParam, value: f64) -> Result<(), ConfigError> {
    let as_usize = |v: f64| v.round().max(0.0) as usize;
    match param {
        SweepParam::Lambda => s.workload.lambda = value,
        SweepParam::P => s.workload.p = value,
        SweepParam::Horizon => s.run.horizon = value,
        SweepParam::Dim => match &mut s.topology {
            Topology::Hypercube { dim }
            | Topology::Butterfly { dim }
            | Topology::Pipelined { dim, .. }
            // Torus: a Dim axis sweeps d at fixed radix; de Bruijn: the
            // shift-register width (both scale the node count).
            | Topology::Torus { dim, .. }
            | Topology::DeBruijn { dim } => *dim = as_usize(value),
            // The ring's size parameter: a Dim axis sweeps the node count.
            Topology::Ring { nodes, .. } => *nodes = as_usize(value),
            // The fat tree's level count: a Dim axis sweeps the tree
            // height (and with it the 2^L leaf count).
            Topology::FatTree { levels } => *levels = as_usize(value),
            // Sparse generators: a Dim axis sweeps the size knob (the
            // lattice side, or the node count) — the E28/E29 n-scaling
            // axis.
            Topology::SmallWorld { side, .. } => *side = as_usize(value) as u32,
            Topology::Hyperbolic { nodes, .. }
            | Topology::ScaleFree { nodes, .. }
            | Topology::Expander { nodes, .. } => *nodes = as_usize(value) as u32,
            Topology::EqNet { net, .. } => match net {
                EqNetSpec::HypercubeQ { dim } | EqNetSpec::ButterflyR { dim } => {
                    *dim = as_usize(value)
                }
                EqNetSpec::Fig2 { .. } => {
                    return Err(ConfigError::Unsupported {
                        topology: "eqnet".to_string(),
                        feature: "sweeping Dim on the Fig. 2 network".to_string(),
                    })
                }
            },
        },
        SweepParam::Rounds => match &mut s.topology {
            Topology::Pipelined { rounds, .. } => *rounds = as_usize(value),
            _ => {
                return Err(ConfigError::Unsupported {
                    topology: s.topology.name().to_string(),
                    feature: "sweeping Rounds (pipelined only)".to_string(),
                })
            }
        },
        SweepParam::Alpha => match &mut s.topology {
            Topology::SmallWorld { alpha, .. } | Topology::Hyperbolic { alpha, .. } => {
                *alpha = value
            }
            Topology::ScaleFree { gamma, .. } => *gamma = value,
            _ => {
                return Err(ConfigError::Unsupported {
                    topology: s.topology.name().to_string(),
                    feature: "sweeping Alpha (sparse generated topologies only)".to_string(),
                })
            }
        },
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hypercube_scenario() -> Scenario {
        Scenario::builder(Topology::Hypercube { dim: 4 })
            .lambda(1.2)
            .p(0.5)
            .horizon(400.0)
            .warmup(80.0)
            .seed(12)
            .build()
            .unwrap()
    }

    #[test]
    fn canonical_hash_ignores_representation_but_not_semantics() {
        let s = hypercube_scenario();
        let hash = s.canonical_hash();
        // The hash survives a JSON round trip: what gets parsed back is
        // semantically the same scenario, whatever its on-disk text was.
        assert_eq!(
            Scenario::from_json(&s.to_json()).unwrap().canonical_hash(),
            hash
        );
        // A semantic change — here the seed — moves the key.
        let mut reseeded = s.clone();
        reseeded.run.seed += 1;
        assert_ne!(reseeded.canonical_hash(), hash);
    }

    #[test]
    fn scenario_hash_displays_as_32_hex_digits() {
        let rendered = hypercube_scenario().canonical_hash().to_string();
        assert_eq!(rendered.len(), 32);
        assert!(rendered.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(ScenarioHash(0).to_string(), "0".repeat(32));
    }

    #[test]
    fn builder_validates() {
        let err = Scenario::builder(Topology::Hypercube { dim: 0 })
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Dimension { dim: 0, .. }));
        let err = Scenario::builder(Topology::Hypercube { dim: 4 })
            .lambda(-1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Lambda(_)));
        let err = Scenario::builder(Topology::Hypercube { dim: 4 })
            .horizon(10.0)
            .warmup(20.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Window { .. }));
    }

    #[test]
    fn butterfly_rejects_hypercube_only_settings() {
        let err = Scenario::builder(Topology::Butterfly { dim: 4 })
            .scheme(Scheme::TwoPhaseValiant)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Unsupported { .. }));
        let err = Scenario::builder(Topology::Butterfly { dim: 4 })
            .contention(ContentionPolicy::Lifo)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Unsupported { .. }));
    }

    #[test]
    fn butterfly_fault_rejection_names_the_multipath_alternative() {
        use crate::config::{FaultMode, FaultSpec};
        let spec = |fallback| {
            Some(FaultSpec {
                mode: FaultMode::Seeded {
                    fraction: 0.1,
                    seed: 7,
                },
                fallback,
                dynamics: None,
            })
        };
        // Detour and Drop stay rejected, and the error text points at
        // the fallbacks that do work on unique-path topologies.
        for fallback in [FaultFallback::Detour, FaultFallback::Drop] {
            let err = Scenario::builder(Topology::Butterfly { dim: 3 })
                .faults(spec(fallback))
                .build()
                .unwrap_err();
            let text = err.to_string();
            assert!(
                text.contains("Multipath or Retry"),
                "error must name the working fallbacks: {text}"
            );
        }
        // The ranked-alternate fallbacks are accepted.
        for fallback in [FaultFallback::Multipath, FaultFallback::Retry { budget: 4 }] {
            Scenario::builder(Topology::Butterfly { dim: 3 })
                .faults(spec(fallback))
                .build()
                .expect("multipath-capable fallbacks pass validation");
        }
    }

    #[test]
    fn fattree_validates_and_sweeps_its_level_count() {
        let err = Scenario::builder(Topology::FatTree { levels: 0 })
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Dimension { dim: 0, .. }));
        let base = Scenario::builder(Topology::FatTree { levels: 2 })
            .lambda(0.2)
            .horizon(100.0)
            .warmup(10.0)
            .build()
            .unwrap();
        let sweep = Sweep::new(base, vec![Axis::new(SweepParam::Dim, vec![2.0, 3.0, 4.0])]);
        let levels: Vec<usize> = sweep
            .scenarios()
            .unwrap()
            .iter()
            .map(|s| match s.topology {
                Topology::FatTree { levels } => levels,
                _ => unreachable!("sweeping Dim keeps the topology"),
            })
            .collect();
        assert_eq!(levels, vec![2, 3, 4]);
    }

    #[test]
    fn eqnet_rejects_slotted_arrivals() {
        let err = Scenario::builder(Topology::EqNet {
            net: EqNetSpec::HypercubeQ { dim: 3 },
            record_departures: false,
            occupancy_cap: 0,
        })
        .arrivals(ArrivalModel::Slotted { slots_per_unit: 2 })
        .build()
        .unwrap_err();
        assert!(matches!(err, ConfigError::Unsupported { .. }));
    }

    #[test]
    fn scenario_runs_all_topologies() {
        let hc = hypercube_scenario().run().unwrap();
        assert!(hc.generated > 0);
        assert!(hc.hypercube().is_some());

        let bf = Scenario::builder(Topology::Butterfly { dim: 3 })
            .lambda(1.0)
            .horizon(300.0)
            .warmup(50.0)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(bf.butterfly().is_some());
        assert_eq!(bf.generated, bf.delivered);

        let eq = Scenario::builder(Topology::EqNet {
            net: EqNetSpec::HypercubeQ { dim: 3 },
            record_departures: false,
            occupancy_cap: 0,
        })
        .discipline(Discipline::Ps)
        .horizon(300.0)
        .warmup(50.0)
        .build()
        .unwrap()
        .run()
        .unwrap();
        assert!(eq.eqnet().is_some());
        assert!(eq.generated > 0);

        let pipe = Scenario::builder(Topology::Pipelined { dim: 3, rounds: 50 })
            .lambda(0.05)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(pipe.pipelined().is_some());
        assert!(pipe.delivered > 0);

        let ft = Scenario::builder(Topology::FatTree { levels: 3 })
            .lambda(0.3)
            .horizon(300.0)
            .warmup(50.0)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let ft_ext = ft.graph().expect("fat tree reports GraphExt");
        assert_eq!(ft.generated, ft.delivered + ft_ext.dropped);
        assert!(ft.delivered > 0);
    }

    #[test]
    fn faulty_butterfly_routes_through_the_graph_engine() {
        use crate::config::{FaultMode, FaultSpec};
        let report = Scenario::builder(Topology::Butterfly { dim: 3 })
            .lambda(0.4)
            .horizon(300.0)
            .warmup(50.0)
            .faults(Some(FaultSpec {
                mode: FaultMode::Seeded {
                    fraction: 0.15,
                    seed: 9,
                },
                fallback: FaultFallback::Multipath,
                dynamics: None,
            }))
            .build()
            .unwrap()
            .run()
            .unwrap();
        let ext = report.graph().expect("faulty butterfly reports GraphExt");
        assert!(ext.dead_arcs > 0, "the seeded mask must kill arcs");
        assert_eq!(report.generated, report.delivered + ext.dropped);
        assert!(
            report.delivered > 0,
            "multipath back-routing keeps the butterfly delivering"
        );
    }

    #[test]
    fn pipelined_reports_with_nan_fields_compare_equal() {
        // Pipelined reports set fields without a meaningful value to NaN
        // (peak_in_system, throughput, little_error, delay quantiles);
        // the hand-written PartialEq must still see identical runs as
        // equal, including after a JSON round-trip (NaN → null → NaN).
        let scenario = Scenario::builder(Topology::Pipelined { dim: 3, rounds: 40 })
            .lambda(0.05)
            .build()
            .unwrap();
        let a = scenario.run().unwrap();
        let b = scenario.run().unwrap();
        assert!(a.peak_in_system.is_nan(), "fixture lost its NaN fields");
        assert_eq!(a, b);
        let text = serde_json::to_string(&a).unwrap();
        let back: Report = serde_json::from_str(&text).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn json_round_trip_preserves_scenario() {
        let scenario = hypercube_scenario();
        let text = scenario.to_json();
        let back = Scenario::from_json(&text).unwrap();
        assert_eq!(scenario, back);
    }

    #[test]
    fn from_json_rejects_invalid_scenarios() {
        let mut scenario = hypercube_scenario();
        scenario.workload.lambda = f64::NAN; // NaN serialises as null → NaN
        let text = scenario.to_json();
        assert!(Scenario::from_json(&text).is_err());
        assert!(Scenario::from_json("{").is_err());
    }

    #[test]
    fn sweep_row_major_order_and_seeds() {
        let sweep = Sweep::new(
            hypercube_scenario(),
            vec![
                Axis::new(SweepParam::Lambda, vec![0.5, 1.0]),
                Axis::new(SweepParam::P, vec![0.25, 0.5, 0.75]),
            ],
        );
        assert_eq!(sweep.len(), 6);
        let points = sweep.scenarios().unwrap();
        let got: Vec<(f64, f64)> = points
            .iter()
            .map(|s| (s.workload.lambda, s.workload.p))
            .collect();
        assert_eq!(
            got,
            vec![
                (0.5, 0.25),
                (0.5, 0.5),
                (0.5, 0.75),
                (1.0, 0.25),
                (1.0, 0.5),
                (1.0, 0.75),
            ]
        );
        // Seeds are pairwise distinct and reproducible.
        let seeds: Vec<u64> = (0..6).map(|i| sweep.seed_for(i)).collect();
        let set: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(set.len(), 6);
        assert_eq!(seeds, (0..6).map(|i| sweep.seed_for(i)).collect::<Vec<_>>());
    }

    #[test]
    fn scenario_at_matches_full_expansion() {
        let sweep = Sweep::new(
            hypercube_scenario(),
            vec![
                Axis::new(SweepParam::Lambda, vec![0.5, 1.0]),
                Axis::new(SweepParam::P, vec![0.25, 0.5, 0.75]),
                Axis::new(SweepParam::Dim, vec![3.0, 4.0]),
            ],
        );
        let all = sweep.scenarios().unwrap();
        for (i, expected) in all.iter().enumerate() {
            assert_eq!(&sweep.scenario_at(i).unwrap(), expected, "point {i}");
        }
    }

    #[test]
    fn slice_scenarios_extract_contiguous_subgrid() {
        let sweep = Sweep::new(
            hypercube_scenario(),
            vec![
                Axis::new(SweepParam::Lambda, vec![0.5, 1.0]),
                Axis::new(SweepParam::P, vec![0.25, 0.5, 0.75]),
            ],
        );
        let all = sweep.scenarios().unwrap();
        let slice = sweep.slice_scenarios(2, 3).unwrap();
        assert_eq!(slice, all[2..5]);
        assert!(sweep.slice_scenarios(6, 0).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_scenarios_rejects_overflow() {
        let sweep = Sweep::new(
            hypercube_scenario(),
            vec![Axis::new(SweepParam::Lambda, vec![0.5, 1.0])],
        );
        let _ = sweep.slice_scenarios(1, 2);
    }

    #[test]
    fn from_json_parse_errors_carry_line_and_column() {
        let text = "{\n  \"topology\": {\n    oops\n  }\n}";
        let err = Scenario::from_json(text).unwrap_err();
        let ScenarioFileError::Parse { line, column, .. } = err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert_eq!((line, column), (3, 5), "{err}");
        // Single-line input: the column alone locates the byte.
        let err = Scenario::from_json("{\"topology\": !}").unwrap_err();
        let ScenarioFileError::Parse { line, column, .. } = err else {
            panic!("expected a parse error");
        };
        assert_eq!((line, column), (1, 14));
    }

    #[test]
    fn from_json_rejects_the_removed_workers_key() {
        let text = hypercube_scenario().to_json().replacen(
            "\"run\": {",
            "\"run\": {\n    \"workers\": 4,",
            1,
        );
        assert!(text.contains("\"workers\": 4"), "{text}");
        let err = Scenario::from_json(&text).unwrap_err();
        let ScenarioFileError::Removed { key, .. } = err else {
            panic!("expected a removed-key error, got {err:?}");
        };
        assert_eq!(key, "run.workers");
        let message = err.to_string();
        assert!(message.contains("`run.workers`"), "{message}");
        assert!(message.contains("slower than one thread"), "{message}");
    }

    #[test]
    fn sweep_results_independent_of_thread_count() {
        let mut base = hypercube_scenario();
        base.run.horizon = 200.0;
        base.run.warmup = 40.0;
        let sweep = Sweep::new(
            base,
            vec![Axis::new(SweepParam::Lambda, vec![0.6, 1.0, 1.4])],
        );
        let serial = sweep.run(1).unwrap();
        let parallel = sweep.run(0).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 3);
    }

    #[test]
    fn sweep_without_derived_seeds_reuses_base_seed() {
        let mut sweep = Sweep::new(
            hypercube_scenario(),
            vec![Axis::new(SweepParam::Lambda, vec![0.5, 1.0])],
        );
        sweep.derive_seeds = false;
        let points = sweep.scenarios().unwrap();
        assert!(points.iter().all(|s| s.run.seed == 12));
    }

    #[test]
    fn sweep_rejects_invalid_grid_points() {
        let sweep = Sweep::new(
            hypercube_scenario(),
            vec![Axis::new(SweepParam::P, vec![0.5, 1.5])],
        );
        assert!(matches!(
            sweep.scenarios(),
            Err(ConfigError::FlipProbability(_))
        ));
    }

    #[test]
    fn dim_sweep_touches_topology() {
        let sweep = Sweep::new(
            hypercube_scenario(),
            vec![Axis::new(SweepParam::Dim, vec![3.0, 5.0])],
        );
        let points = sweep.scenarios().unwrap();
        assert_eq!(points[0].topology, Topology::Hypercube { dim: 3 });
        assert_eq!(points[1].topology, Topology::Hypercube { dim: 5 });
    }

    fn smallworld_scenario() -> Scenario {
        Scenario::builder(Topology::SmallWorld {
            side: 32,
            dims: 2,
            links: 2,
            alpha: 2.0,
            seed: 11,
        })
        .lambda(0.05)
        .horizon(400.0)
        .warmup(80.0)
        .seed(5)
        .build()
        .unwrap()
    }

    #[test]
    fn sparse_generator_bounds_are_validated() {
        let bad = |t: Topology| {
            let err = Scenario::builder(t).build().unwrap_err();
            assert!(
                matches!(err, ConfigError::GeneratorParam { .. }),
                "wanted GeneratorParam, got {err:?}"
            );
        };
        bad(Topology::SmallWorld {
            side: 2,
            dims: 2,
            links: 1,
            alpha: 2.0,
            seed: 0,
        });
        bad(Topology::SmallWorld {
            side: 9000,
            dims: 4,
            links: 1,
            alpha: 2.0,
            seed: 0,
        });
        bad(Topology::Hyperbolic {
            nodes: 128,
            alpha: 0.0,
            radius_offset: 0.0,
            seed: 0,
        });
        bad(Topology::Hyperbolic {
            nodes: 128,
            alpha: 0.8,
            radius_offset: f64::NAN,
            seed: 0,
        });
        // Offsets that would allocate ~R bands (1e12 aborts, 1e300
        // overflows capacity) or build a near-complete graph (-30 at
        // n = 65536 runs for minutes) are refused before generation.
        for radius_offset in [1e12, 1e300, -30.0] {
            bad(Topology::Hyperbolic {
                nodes: 65536,
                alpha: 0.7,
                radius_offset,
                seed: 0,
            });
        }
        bad(Topology::ScaleFree {
            nodes: 256,
            gamma: 1.0,
            min_degree: 2,
            seed: 0,
        });
        bad(Topology::Expander {
            nodes: 256,
            degree: 2,
            seed: 0,
        });
        // Odd stub total.
        bad(Topology::Expander {
            nodes: 255,
            degree: 3,
            seed: 0,
        });
    }

    #[test]
    fn sparse_topologies_reject_dense_only_features() {
        let err = Scenario::builder(Topology::Hyperbolic {
            nodes: 128,
            alpha: 0.8,
            radius_offset: 0.0,
            seed: 1,
        })
        .dest(DestinationSpec::RingPowerLaw { alpha: 1.0 })
        .build()
        .unwrap_err();
        assert!(matches!(err, ConfigError::Unsupported { .. }));
        // Explicit dead-arc lists are generator-dependent — rejected.
        use crate::config::FaultMode;
        let err = Scenario::builder(Topology::ScaleFree {
            nodes: 256,
            gamma: 2.5,
            min_degree: 2,
            seed: 1,
        })
        .faults(Some(FaultSpec {
            mode: FaultMode::Explicit { arcs: vec![0] },
            fallback: FaultFallback::Drop,
            dynamics: None,
        }))
        .build()
        .unwrap_err();
        assert!(matches!(err, ConfigError::Unsupported { .. }));
    }

    #[test]
    fn smallworld_runs_end_to_end_with_outcome_taxonomy() {
        let r = smallworld_scenario().run().unwrap();
        let g = r.graph().expect("sparse runs report the graph extension");
        assert_eq!(g.nodes, 1024);
        let o = g.outcomes.as_ref().expect("sparse always reports outcomes");
        // The fault-free lattice with long links never stalls: the
        // lattice arcs alone always improve the L1 metric.
        assert_eq!(o.local_minimum + o.dead_end, 0);
        assert_eq!(r.generated, r.delivered);
        assert!(o.success > 0);
        // Bit-identical reruns across schedulers.
        let mut alt = smallworld_scenario();
        alt.run.scheduler = SchedulerKind::Heap;
        assert_eq!(r, alt.run().unwrap());
    }

    #[test]
    fn sparse_scenario_json_round_trips() {
        let s = smallworld_scenario();
        let parsed = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(s, parsed);
        assert_eq!(s.run().unwrap(), parsed.run().unwrap());
        // Absent stretch key parses to None and emits no block.
        assert!(!s.to_json().contains("stretch"));
    }

    #[test]
    fn alpha_sweep_touches_the_law_exponent() {
        let sweep = Sweep::new(
            smallworld_scenario(),
            vec![Axis::new(SweepParam::Alpha, vec![1.0, 2.0, 3.0])],
        );
        let alphas: Vec<f64> = sweep
            .scenarios()
            .unwrap()
            .iter()
            .map(|s| match s.topology {
                Topology::SmallWorld { alpha, .. } => alpha,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(alphas, vec![1.0, 2.0, 3.0]);
        // Alpha on a dense topology is a structured error.
        let err = Sweep::new(
            hypercube_scenario(),
            vec![Axis::new(SweepParam::Alpha, vec![1.0])],
        )
        .scenarios()
        .unwrap_err();
        assert!(matches!(err, ConfigError::Unsupported { .. }));
    }

    #[test]
    fn hyperbolic_reports_stalls_in_the_taxonomy() {
        // A sparse disk at alpha close to 1 leaves some node pairs
        // without a greedy path — those must surface as LOCAL_MINIMUM
        // or DEAD_END drops, conserving the packet count.
        let r = Scenario::builder(Topology::Hyperbolic {
            nodes: 256,
            alpha: 0.9,
            radius_offset: 0.0,
            seed: 3,
        })
        .lambda(0.05)
        .horizon(400.0)
        .warmup(80.0)
        .seed(9)
        .build()
        .unwrap()
        .run()
        .unwrap();
        let g = r.graph().unwrap();
        let o = g.outcomes.as_ref().unwrap();
        assert!(
            o.local_minimum + o.dead_end > 0,
            "a sparse disk should stall somewhere"
        );
        assert_eq!(r.generated, r.delivered + g.dropped, "conservation");
        assert_eq!(o.local_minimum + o.dead_end, g.dropped_in_window);
    }
}
