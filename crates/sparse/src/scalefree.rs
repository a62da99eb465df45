//! Configuration-model generators: scale-free degree sequences
//! (power-law `P(k) ∝ k^{-gamma}`) and random d-regular expanders, both
//! built by uniform stub matching on the shared CSR path.
//!
//! The matching is the **erased** configuration model: stubs are paired
//! by a seeded Fisher–Yates shuffle, then self-loops are dropped and
//! multi-edges merged ([`SparseGraph::from_undirected_edges`] does
//! both), which preserves the degree law asymptotically. Neither family
//! has a geometric embedding, so greedy routes on the neutral
//! [`Embedding::RingOffset`] metric — these graphs exist to exercise the
//! `LOCAL_MINIMUM`/`DEAD_END` outcome taxonomy and (for the expander)
//! E27's fault-survivability comparison, not to showcase greedy.

use crate::csr::SparseGraph;
use crate::embed::Embedding;
use crate::topo::SparseTopology;
use hyperroute_desim::SimRng;

/// Pair stubs uniformly at random (Fisher–Yates, seeded) and erase
/// self-loops/multi-edges. `degrees.len()` is the node count; an odd
/// stub total is fixed up by bumping node 0.
fn configuration_model(mut degrees: Vec<u32>, rng: &mut SimRng) -> SparseGraph {
    let nodes = degrees.len();
    let total: u64 = degrees.iter().map(|&d| d as u64).sum();
    if total % 2 == 1 {
        degrees[0] += 1;
    }
    let mut stubs: Vec<u32> = Vec::with_capacity((total + 1) as usize);
    for (v, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(v as u32, d as usize));
    }
    // Fisher–Yates: uniform over matchings once consecutive stubs pair.
    for i in (1..stubs.len()).rev() {
        let j = rng.below(i + 1);
        stubs.swap(i, j);
    }
    let mut edges: Vec<(u32, u32)> = stubs.chunks_exact(2).map(|p| (p[0], p[1])).collect();
    SparseGraph::from_undirected_edges(nodes, &mut edges)
}

/// Draw a power-law degree sequence `P(k) ∝ k^{-gamma}` over
/// `k ∈ min_degree..=kmax` with the natural cutoff `kmax = √n`.
fn power_law_degrees(nodes: u32, gamma: f64, min_degree: u32, rng: &mut SimRng) -> Vec<u32> {
    let kmax = ((nodes as f64).sqrt() as u32).max(min_degree);
    let mut cdf = Vec::with_capacity((kmax - min_degree + 1) as usize);
    let mut acc = 0.0f64;
    for k in min_degree..=kmax {
        acc += (k as f64).powf(-gamma);
        cdf.push(acc);
    }
    (0..nodes)
        .map(|_| {
            let u = rng.uniform01() * acc;
            min_degree + cdf.partition_point(|&c| c <= u) as u32
        })
        .collect()
}

/// Generate a seeded scale-free graph on `nodes` nodes with power-law
/// exponent `gamma > 1` and minimum degree `min_degree` (erased
/// configuration model). Greedy routes on the circular node-id metric.
///
/// Deterministic: identical inputs yield a byte-identical CSR.
pub fn scale_free(nodes: u32, gamma: f64, min_degree: u32, seed: u64) -> SparseTopology {
    assert!(nodes >= 4, "need at least four nodes");
    assert!(gamma > 1.0 && gamma.is_finite(), "gamma must exceed 1");
    assert!(
        min_degree >= 1 && min_degree < nodes,
        "min_degree must be in 1..nodes"
    );
    let mut rng = SimRng::new(seed);
    let degrees = power_law_degrees(nodes, gamma, min_degree, &mut rng);
    let graph = configuration_model(degrees, &mut rng);
    SparseTopology::new(graph, Embedding::RingOffset { n: nodes })
}

/// Generate a seeded random `degree`-regular graph (an expander with
/// high probability) on `nodes` nodes via the erased configuration
/// model; `nodes · degree` must be even. Greedy routes on the circular
/// node-id metric.
///
/// Deterministic: identical inputs yield a byte-identical CSR.
pub fn expander(nodes: u32, degree: u32, seed: u64) -> SparseTopology {
    assert!(nodes >= 4, "need at least four nodes");
    assert!(
        degree >= 3,
        "degree below 3 disconnects with high probability"
    );
    assert!(degree < nodes, "degree must be below the node count");
    assert!(
        (nodes as u64 * degree as u64).is_multiple_of(2),
        "nodes * degree must be even"
    );
    let mut rng = SimRng::new(seed);
    let graph = configuration_model(vec![degree; nodes as usize], &mut rng);
    SparseTopology::new(graph, Embedding::RingOffset { n: nodes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperroute_topology::RoutingTopology;

    #[test]
    fn scale_free_is_deterministic_and_respects_min_degree_in_law() {
        let a = scale_free(1024, 2.5, 2, 77);
        let b = scale_free(1024, 2.5, 2, 77);
        assert_eq!(a.graph(), b.graph());
        assert_ne!(a.graph(), scale_free(1024, 2.5, 2, 78).graph());
        // Erasure can only lower degrees; the mean must stay near the
        // law's mean (ζ-weighted, ≥ min_degree).
        let mean = a.graph().num_arcs() as f64 / a.num_nodes() as f64;
        assert!(mean >= 1.5, "mean degree {mean} collapsed");
    }

    #[test]
    fn scale_free_tail_is_heavy() {
        let t = scale_free(4096, 2.2, 2, 3);
        let max_deg = (0..t.num_nodes())
            .map(|v| t.graph().degree(v))
            .max()
            .unwrap();
        // A power law with cutoff √n = 64 should produce hubs far above
        // the minimum degree; a homogeneous graph would not.
        assert!(max_deg >= 20, "no hubs: max degree {max_deg}");
    }

    #[test]
    fn expander_is_near_regular_and_connected_enough() {
        let t = expander(512, 4, 9);
        // Erasure removes few edges at constant degree: mean close to d.
        let mean = t.graph().num_arcs() as f64 / t.num_nodes() as f64;
        assert!(mean > 3.5, "mean degree {mean} too far below 4");
        for v in 0..t.num_nodes() {
            assert!(t.graph().degree(v) <= 4);
        }
        // Random 4-regular graphs are connected whp: BFS reaches ≥ 99%.
        let mut reached = 1usize;
        let mut seen = vec![false; 512];
        seen[0] = true;
        let mut frontier = vec![0u32];
        while let Some(u) = frontier.pop() {
            for &v in t.graph().neighbors(u as usize) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    reached += 1;
                    frontier.push(v);
                }
            }
        }
        assert!(reached >= 507, "only {reached}/512 reachable");
    }

    #[test]
    fn odd_stub_total_is_repaired() {
        // 5 nodes × degree 3 = 15 stubs (odd) → node 0 bumped to 4.
        let mut rng = SimRng::new(1);
        let g = configuration_model(vec![3; 5], &mut rng);
        // Total arcs even and bounded by 16 (before erasure).
        assert!(g.num_arcs().is_multiple_of(2));
        assert!(g.num_arcs() <= 16);
    }
}
