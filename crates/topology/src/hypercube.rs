//! The `d`-dimensional binary hypercube (paper §1.1).

use crate::arcs::HypercubeArc;
use crate::node::NodeId;
use serde::{Deserialize, Serialize};

/// Maximum supported hypercube dimension.
///
/// `2^26` nodes × 26 arcs each already exceeds a billion queue slots; higher
/// dimensions are analytically interesting but not simulable, and `u64`
/// node identities cap out at 63 anyway.
pub const MAX_DIM: usize = 26;

/// The `d`-dimensional binary hypercube.
///
/// `2^d` nodes, `d·2^d` directed arcs; arc `(x, x ⊕ e_j)` is of *type* `j`
/// and the set of all type-`j` arcs is the `j`-th *dimension*. Diameter `d`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hypercube {
    dim: usize,
}

impl Hypercube {
    /// Create a `d`-cube. Panics if `d == 0` or `d > MAX_DIM`.
    pub fn new(dim: usize) -> Hypercube {
        assert!(dim >= 1, "hypercube dimension must be at least 1");
        assert!(dim <= MAX_DIM, "hypercube dimension must be ≤ {MAX_DIM}");
        Hypercube { dim }
    }

    /// Dimension `d`.
    #[inline]
    pub fn dim(self) -> usize {
        self.dim
    }

    /// Number of nodes, `2^d`.
    #[inline]
    pub fn num_nodes(self) -> usize {
        1 << self.dim
    }

    /// Number of directed arcs, `d · 2^d`.
    #[inline]
    pub fn num_arcs(self) -> usize {
        self.dim << self.dim
    }

    /// Network diameter (equals `d`, paper §1.1).
    #[inline]
    pub fn diameter(self) -> usize {
        self.dim
    }

    /// Whether `node` is a valid node of this cube.
    #[inline]
    pub fn contains(self, node: NodeId) -> bool {
        node.0 < (1u64 << self.dim)
    }

    /// Iterator over all node identities `0..2^d`.
    pub fn nodes(self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.num_nodes()).map(|v| NodeId(v as u64))
    }

    /// Iterator over the `d` neighbours of `node` in dimension order.
    pub fn neighbors(self, node: NodeId) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.dim).map(move |j| node.flip(j))
    }

    /// Iterator over all `d · 2^d` directed arcs, in dense-index order.
    pub fn arcs(self) -> impl Iterator<Item = HypercubeArc> {
        let d = self.dim;
        self.nodes()
            .flat_map(move |from| (0..d).map(move |dim| HypercubeArc { from, dim }))
    }

    /// The canonical (greedy) shortest path from `src` to `dst`: the needed
    /// dimensions are crossed in increasing index order (paper §1.1).
    ///
    /// Yields one arc per hop; the iterator is empty when `src == dst`.
    /// The path length always equals `src.hamming(dst)`.
    pub fn canonical_path(self, src: NodeId, dst: NodeId) -> CanonicalPath {
        debug_assert!(self.contains(src) && self.contains(dst));
        CanonicalPath {
            at: src,
            dims: src.differing_dims(dst),
        }
    }

    /// Number of shortest paths from `src` to `dst` (`H(src,dst)!`); the
    /// canonical path is the unique one crossing dimensions in increasing
    /// order. Saturates at `u64::MAX` for large distances.
    pub fn num_shortest_paths(self, src: NodeId, dst: NodeId) -> u64 {
        let k = src.hamming(dst) as u64;
        let mut acc: u64 = 1;
        for i in 1..=k {
            acc = acc.saturating_mul(i);
        }
        acc
    }
}

/// Iterator over the arcs of a canonical path (increasing dimension order).
#[derive(Clone, Debug)]
pub struct CanonicalPath {
    at: NodeId,
    dims: crate::node::DifferingDims,
}

impl Iterator for CanonicalPath {
    type Item = HypercubeArc;

    #[inline]
    fn next(&mut self) -> Option<HypercubeArc> {
        let dim = self.dims.next()?;
        let arc = HypercubeArc { from: self.at, dim };
        self.at = arc.to();
        Some(arc)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.dims.size_hint()
    }
}

impl ExactSizeIterator for CanonicalPath {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_counts() {
        let c = Hypercube::new(3);
        assert_eq!(c.num_nodes(), 8);
        assert_eq!(c.num_arcs(), 24);
        assert_eq!(c.diameter(), 3);
        assert_eq!(c.nodes().count(), 8);
        assert_eq!(c.arcs().count(), 24);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_dim_rejected() {
        Hypercube::new(0);
    }

    #[test]
    #[should_panic(expected = "≤")]
    fn oversized_dim_rejected() {
        Hypercube::new(MAX_DIM + 1);
    }

    #[test]
    fn neighbors_differ_in_one_bit() {
        let c = Hypercube::new(5);
        let x = NodeId(0b10110);
        let ns: Vec<NodeId> = c.neighbors(x).collect();
        assert_eq!(ns.len(), 5);
        for (j, n) in ns.iter().enumerate() {
            assert_eq!(x.hamming(*n), 1);
            assert_eq!(x.flip(j), *n);
        }
    }

    #[test]
    fn paper_example_path() {
        // Paper §1.1: (0,0,0,0) → (1,0,1,1) crosses dims 1,3,4 (1-based),
        // i.e. 0,2,3 here, visiting 0001, 0101, 1101 in paper bit-order.
        // In our LSB-first convention the destination is 0b1101.
        let c = Hypercube::new(4);
        let src = NodeId(0b0000);
        let dst = NodeId(0b1101);
        let hops: Vec<HypercubeArc> = c.canonical_path(src, dst).collect();
        let dims: Vec<usize> = hops.iter().map(|a| a.dim).collect();
        assert_eq!(dims, vec![0, 2, 3]);
        let visited: Vec<u64> = hops.iter().map(|a| a.to().0).collect();
        assert_eq!(visited, vec![0b0001, 0b0101, 0b1101]);
    }

    #[test]
    fn canonical_path_is_shortest_and_connected() {
        let c = Hypercube::new(6);
        for src in [0u64, 5, 21, 63] {
            for dst in [0u64, 1, 42, 63] {
                let (src, dst) = (NodeId(src), NodeId(dst));
                let path: Vec<HypercubeArc> = c.canonical_path(src, dst).collect();
                assert_eq!(path.len() as u32, src.hamming(dst));
                // Connectivity: consecutive arcs chain, ends at dst.
                let mut at = src;
                for arc in &path {
                    assert_eq!(arc.from, at);
                    at = arc.to();
                }
                assert_eq!(at, dst);
                // Monotone dimensions.
                assert!(path.windows(2).all(|w| w[0].dim < w[1].dim));
            }
        }
    }

    #[test]
    fn empty_path_for_self_destination() {
        let c = Hypercube::new(4);
        assert_eq!(c.canonical_path(NodeId(7), NodeId(7)).count(), 0);
    }

    #[test]
    fn shortest_path_counts() {
        let c = Hypercube::new(4);
        assert_eq!(c.num_shortest_paths(NodeId(0), NodeId(0)), 1);
        assert_eq!(c.num_shortest_paths(NodeId(0), NodeId(0b1)), 1);
        assert_eq!(c.num_shortest_paths(NodeId(0), NodeId(0b11)), 2);
        assert_eq!(c.num_shortest_paths(NodeId(0), NodeId(0b1111)), 24);
    }

    #[test]
    fn arcs_cover_dense_index_space() {
        let c = Hypercube::new(4);
        let idx: Vec<usize> = c.arcs().map(|a| a.index(4)).collect();
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), c.num_arcs());
        assert_eq!(*sorted.last().unwrap(), c.num_arcs() - 1);
    }

    #[test]
    fn translation_invariance_of_paths() {
        // Renaming x → x ⊕ y* maps canonical paths to canonical paths
        // (paper §1.1, invariance under translation).
        let c = Hypercube::new(5);
        let y_star = NodeId(0b10101);
        let (src, dst) = (NodeId(3), NodeId(28));
        let base: Vec<usize> = c.canonical_path(src, dst).map(|a| a.dim).collect();
        let shifted: Vec<usize> = c
            .canonical_path(src.xor(y_star), dst.xor(y_star))
            .map(|a| a.dim)
            .collect();
        assert_eq!(base, shifted);
    }
}
