//! # hyperroute
//!
//! A faithful, exhaustively tested reproduction of
//! **“The Efficiency of Greedy Routing in Hypercubes and Butterflies”**
//! (G. D. Stamoulis & J. N. Tsitsiklis, SPAA 1991 / MIT LIDS-P-1999):
//! exact packet-level simulators for the paper's dynamic routing model,
//! every closed-form bound as a documented function, the levelled
//! equivalent queueing networks with FIFO/PS coupling, baseline schemes,
//! and an example that regenerates every experiment table.
//!
//! ## The model in one paragraph
//!
//! Every node of the `d`-dimensional hypercube generates packets as an
//! independent Poisson process with rate `λ`; a packet picks its
//! destination by flipping each origin bit independently with probability
//! `p`. Greedy routing sends it across the required dimensions in
//! increasing index order, one unit of time per arc, FIFO per arc, no
//! idling. With load factor `ρ = λp` the paper proves stability for every
//! `ρ < 1` and brackets the stationary delay as
//! `dp + pρ/(2(1-ρ)) ≤ T ≤ dp/(1-ρ)` — average delay `O(d)` at any fixed
//! load. The butterfly analogue replaces `ρ` with `λ·max{p, 1-p}` and
//! brackets `T` between `d + λp²/(2(1-λp)) + λ(1-p)²/(2(1-λ(1-p)))` and
//! `dp/(1-λp) + d(1-p)/(1-λ(1-p))`.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`topology`] | hypercube, butterfly, ring, torus, de Bruijn, the generic `RoutingTopology` trait, canonical paths, equivalent networks Q/R, DOT figures |
//! | [`desim`] | the binary-heap future-event list, RNG streams, statistics |
//! | [`queueing`] | M/M/1, M/D/1, M/D/s, FIFO/PS sample-path servers, product form |
//! | [`analysis`] | every proposition's bound as a function |
//! | [`routing`] | the topology-generic engine, the scenario API, and the per-topology simulator specs (crate `hyperroute-core`) |
//! | [`sparse`] | seeded million-node graph generators (Kleinberg small-world, hyperbolic disk, configuration-model scale-free/expander) on a streaming CSR with metric greedy routing (crate `hyperroute-sparse`) |
//! | [`grid`] | sharded sweep campaigns: slice jobs, thread-pool/subprocess backends, the content-addressed report cache, the scenario-corpus regression gate (crate `hyperroute-grid`) |
//! | [`experiments`] | the E01–E29 harnesses and result tables |
//!
//! ## Quick start
//!
//! One typed [`prelude::Scenario`] drives every topology — hypercube,
//! butterfly, ring, torus, de Bruijn, the equivalent queueing networks,
//! and the pipelined baseline — through **one** topology-generic engine
//! (`hyperroute_core::engine`), serialises to JSON scenario files, and
//! expands into deterministic parameter [`prelude::Sweep`]s:
//!
//! ```
//! use hyperroute::prelude::*;
//!
//! let report = Scenario::builder(Topology::Hypercube { dim: 5 })
//!     .lambda(1.4)
//!     .p(0.5) // ρ = 0.7
//!     .horizon(2_000.0)
//!     .warmup(400.0)
//!     .seed(7)
//!     .build()
//!     .expect("valid scenario")
//!     .run()
//!     .expect("runs to completion");
//! let bounds = greedy_delay_bounds(5, 1.4, 0.5);
//! assert!(bounds.contains(report.delay.mean, 0.05));
//! ```
//!
//! Grids that outgrow one process shard through [`grid`]: a sweep is cut
//! into serialisable slices, executed on an in-process thread pool or on
//! `hyperroute-grid worker` subprocesses (newline-delimited JSON over
//! stdio), cached per grid point, and merged back **byte-identical** to
//! `Sweep::run`:
//!
//! ```
//! use hyperroute::prelude::*;
//! use hyperroute_grid::{Campaign, ThreadPoolBackend};
//!
//! let base = Scenario::builder(Topology::Hypercube { dim: 3 })
//!     .horizon(80.0)
//!     .warmup(20.0)
//!     .build()
//!     .unwrap();
//! let sweep = Sweep::new(base, vec![Axis::new(SweepParam::Lambda, vec![0.5, 1.0])]);
//! let sharded = Campaign::new(sweep.clone(), 1)
//!     .run(&ThreadPoolBackend::new(2))
//!     .unwrap();
//! assert_eq!(sharded, sweep.run(1).unwrap());
//! ```
//!
//! The checked-in `scenarios/` corpus runs through the same machinery as
//! a CI regression gate (`hyperroute-grid run-corpus`): every scenario's
//! report is diffed bit-exactly against `scenarios/baselines/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use hyperroute_analysis as analysis;
pub use hyperroute_core as routing;
pub use hyperroute_desim as desim;
pub use hyperroute_experiments as experiments;
pub use hyperroute_grid as grid;
pub use hyperroute_queueing as queueing;
pub use hyperroute_sparse as sparse;
pub use hyperroute_topology as topology;

/// The most common imports in one place.
pub mod prelude {
    pub use hyperroute_analysis::butterfly_bounds;
    pub use hyperroute_analysis::hypercube_bounds::{
        greedy_delay_bounds, greedy_lower_bound, greedy_upper_bound, oblivious_lower_bound,
        universal_lower_bound, DelayBounds,
    };
    pub use hyperroute_analysis::load::{butterfly_load_factor, hypercube_load_factor};
    pub use hyperroute_core::config::{FaultArrivals, FaultFallback, FaultMode, FaultSpec};
    pub use hyperroute_core::equivalent_network::Discipline;
    pub use hyperroute_core::observe::{NullObserver, Observer, TimeSeriesProbe};
    pub use hyperroute_core::scenario::{
        Axis, ConfigError, EqNetSpec, GraphExt, OutcomeExt, Report, ReportExt, Scenario,
        ScenarioFileError, Simulator, StretchExt, Sweep, SweepParam, Topology,
    };
    pub use hyperroute_core::{ArrivalModel, ContentionPolicy, DestinationSpec, Scheme};
    pub use hyperroute_experiments::{Scale, Table};
    pub use hyperroute_sparse::{
        expander, hyperbolic, scale_free, small_world, Embedding, SparseGraph, SparseTopology,
    };
    pub use hyperroute_topology::{
        Butterfly, DeBruijn, FatTree, Hypercube, LevelledNetwork, NodeId, Ring, RoutingTopology,
        Torus,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let cube = Hypercube::new(3);
        assert_eq!(cube.num_arcs(), 24);
        let rho = hypercube_load_factor(1.0, 0.5);
        assert_eq!(rho, 0.5);
        let b = greedy_delay_bounds(3, 1.0, 0.5);
        assert!(b.lower < b.upper);
    }

    #[test]
    fn scenario_api_through_facade() {
        let report = Scenario::builder(Topology::Hypercube { dim: 3 })
            .lambda(1.0)
            .horizon(300.0)
            .warmup(50.0)
            .seed(3)
            .build()
            .expect("valid")
            .run()
            .expect("runs");
        assert_eq!(report.generated, report.delivered);
    }
}
