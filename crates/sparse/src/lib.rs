//! Seeded sparse graph generators with metric greedy routing.
//!
//! Every topology in `hyperroute-topology` is a small dense regular
//! graph with a closed-form greedy step. This crate is the other half of
//! that split: graphs that are **generated, not enumerated** — a seeded
//! builder streams a random graph into a CSR adjacency
//! ([`SparseGraph`]), an [`Embedding`] defines the distance that greedy
//! descends, and [`SparseTopology`] glues the two into the same
//! [`RoutingTopology`](hyperroute_topology::RoutingTopology) trait the
//! engine already routes. Because metric greedy can stall, `next_arc`
//! may return `None` away from the destination — the engine classifies
//! those as `LOCAL_MINIMUM` (a neighbour exists but none is closer) or
//! `DEAD_END` (no out-arcs) and can recover with the GOAFR-style escape
//! fallback.
//!
//! Generators:
//!
//! * [`small_world`] — Kleinberg's circular lattice plus harmonic-law
//!   long-range contacts (`P(ℓ) ∝ ℓ^{-alpha}`); greedy is Θ(log²n) at
//!   the harmonic exponent `alpha = dims`.
//! * [`hyperbolic`] — Krioukov et al.'s hyperbolic random graph:
//!   power-law degrees emerge from uniform disk placement, and greedy on
//!   the hyperbolic metric succeeds at near-optimal stretch.
//! * [`scale_free`] — erased configuration model with a power-law degree
//!   sequence; no geometry, routed on the circular node-id metric.
//! * [`expander`] — random d-regular graph (an expander whp) on the same
//!   configuration-model path.
//!
//! All four are deterministic: identical parameters and seed produce a
//! byte-identical CSR, on every platform, which the proptest suite pins.
//!
//! # Adding a generator in ~100 LoC
//!
//! A generator is a function `params × seed → SparseTopology`; the
//! walkthrough in the `hyperroute-topology` crate docs builds one end to
//! end. The short version:
//!
//! 1. Draw your random structure with a [`SimRng`](hyperroute_desim::SimRng)
//!    seeded from the scenario seed — never from ambient entropy.
//! 2. Materialise arcs either per node in id order through
//!    [`CsrBuilder::push_node`] (streaming, for lattice-like graphs) or
//!    as an undirected edge list through
//!    [`SparseGraph::from_undirected_edges`] (for pairwise models).
//! 3. Pick the [`Embedding`] greedy should descend — or add a new
//!    variant with a `metric` and a `quantise` arm if your graph has its
//!    own geometry.
//! 4. Return [`SparseTopology::new`] over the graph and embedding, and
//!    wire a `Topology` arm in `hyperroute-core`'s scenario layer.

mod csr;
mod embed;
mod hub;
mod hyperbolic;
mod scalefree;
mod smallworld;
mod topo;

pub use csr::{CsrBuilder, SparseGraph, MAX_SPARSE_ARCS, MAX_SPARSE_NODES};
pub use embed::{hyperbolic_distance, Embedding, DISK_SCALE};
pub use hyperbolic::{hyperbolic, RADIUS_OFFSET_RANGE};
pub use scalefree::{expander, scale_free};
pub use smallworld::small_world;
pub use topo::SparseTopology;
