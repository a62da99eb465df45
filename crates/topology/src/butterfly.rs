//! The `d`-dimensional butterfly network (paper §4.1).
//!
//! An "unfolded" hypercube: `(d+1) · 2^d` nodes arranged in `d + 1` levels
//! of `2^d` rows. Node `[x; j]` (row `x`, level `j`) connects to
//! `[x; j+1]` (straight arc) and `[x ⊕ e_j; j+1]` (vertical arc). Packets
//! enter at level 0 and exit at level `d`; the path between `[x; 0]` and
//! `[z; d]` is **unique** and crosses the dimensions where `x` and `z`
//! differ via vertical arcs, in increasing index order — the butterfly
//! hard-wires the hypercube's canonical order.

use crate::arcs::{ArcKind, ButterflyArc};
use crate::node::NodeId;
use serde::{Deserialize, Serialize};

/// Maximum supported butterfly dimension (same rationale as the hypercube).
pub const MAX_DIM: usize = 24;

/// A butterfly node `[row; level]`; levels run `0..=d` (the paper uses
/// `1..=d+1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ButterflyNode {
    /// Row identity, `0..2^d`.
    pub row: NodeId,
    /// Level, `0..=d`.
    pub level: usize,
}

impl std::fmt::Display for ButterflyNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}; {}]", self.row, self.level)
    }
}

/// The `d`-dimensional butterfly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Butterfly {
    dim: usize,
}

impl Butterfly {
    /// Create a `d`-dimensional butterfly. Panics if `d == 0` or too large.
    pub fn new(dim: usize) -> Butterfly {
        assert!(dim >= 1, "butterfly dimension must be at least 1");
        assert!(dim <= MAX_DIM, "butterfly dimension must be ≤ {MAX_DIM}");
        Butterfly { dim }
    }

    /// Dimension `d`.
    #[inline]
    pub fn dim(self) -> usize {
        self.dim
    }

    /// Rows per level, `2^d`.
    #[inline]
    pub fn num_rows(self) -> usize {
        1 << self.dim
    }

    /// Node levels, `d + 1`.
    #[inline]
    pub fn num_levels(self) -> usize {
        self.dim + 1
    }

    /// Total nodes, `(d+1) · 2^d`.
    #[inline]
    pub fn num_nodes(self) -> usize {
        (self.dim + 1) << self.dim
    }

    /// Total directed arcs, `d · 2^(d+1)` (two out-arcs per node on levels
    /// `0..d`).
    #[inline]
    pub fn num_arcs(self) -> usize {
        self.dim << (self.dim + 1)
    }

    /// Whether `node` is a valid node.
    #[inline]
    pub fn contains(self, node: ButterflyNode) -> bool {
        node.level <= self.dim && node.row.0 < (1u64 << self.dim)
    }

    /// Iterator over all rows `0..2^d`.
    pub fn rows(self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.num_rows()).map(|v| NodeId(v as u64))
    }

    /// Iterator over all nodes, level-major.
    pub fn nodes(self) -> impl Iterator<Item = ButterflyNode> {
        let rows = self.num_rows() as u64;
        (0..=self.dim).flat_map(move |level| {
            (0..rows).map(move |r| ButterflyNode {
                row: NodeId(r),
                level,
            })
        })
    }

    /// Iterator over all arcs, dense-index order.
    pub fn arcs(self) -> impl Iterator<Item = ButterflyArc> {
        let rows = self.num_rows() as u64;
        (0..self.dim).flat_map(move |level| {
            (0..rows).flat_map(move |r| {
                [ArcKind::Straight, ArcKind::Vertical]
                    .into_iter()
                    .map(move |kind| ButterflyArc {
                        row: NodeId(r),
                        level,
                        kind,
                    })
            })
        })
    }

    /// The unique path from `[src_row; 0]` to `[dst_row; d]`.
    ///
    /// At level `j` the packet takes the vertical arc iff bit `j` of the
    /// current row differs from bit `j` of the destination row; the number
    /// of vertical arcs equals `H(src_row, dst_row)` and the total length is
    /// always exactly `d` (paper §4.1).
    pub fn path(self, src_row: NodeId, dst_row: NodeId) -> ButterflyPath {
        debug_assert!(src_row.0 < (1u64 << self.dim) && dst_row.0 < (1u64 << self.dim));
        ButterflyPath {
            row: src_row,
            dst: dst_row,
            level: 0,
            dim: self.dim,
        }
    }
}

/// Iterator over the `d` arcs of the unique path `[src; 0] → [dst; d]`.
#[derive(Clone, Debug)]
pub struct ButterflyPath {
    row: NodeId,
    dst: NodeId,
    level: usize,
    dim: usize,
}

impl Iterator for ButterflyPath {
    type Item = ButterflyArc;

    #[inline]
    fn next(&mut self) -> Option<ButterflyArc> {
        if self.level >= self.dim {
            return None;
        }
        let kind = if self.row.bit(self.level) == self.dst.bit(self.level) {
            ArcKind::Straight
        } else {
            ArcKind::Vertical
        };
        let arc = ButterflyArc {
            row: self.row,
            level: self.level,
            kind,
        };
        self.row = arc.to_row();
        self.level += 1;
        Some(arc)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.dim - self.level;
        (n, Some(n))
    }
}

impl ExactSizeIterator for ButterflyPath {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_counts() {
        // Paper Fig. 3a: the 2-dimensional butterfly has 3 levels of 4 rows.
        let b = Butterfly::new(2);
        assert_eq!(b.num_rows(), 4);
        assert_eq!(b.num_levels(), 3);
        assert_eq!(b.num_nodes(), 12);
        assert_eq!(b.num_arcs(), 16);
        assert_eq!(b.nodes().count(), 12);
        assert_eq!(b.arcs().count(), 16);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_dim_rejected() {
        Butterfly::new(0);
    }

    #[test]
    fn path_has_length_d_and_reaches_destination() {
        let b = Butterfly::new(5);
        for src in [0u64, 7, 19, 31] {
            for dst in [0u64, 1, 30, 31] {
                let path: Vec<ButterflyArc> = b.path(NodeId(src), NodeId(dst)).collect();
                assert_eq!(path.len(), 5);
                let mut row = NodeId(src);
                for (j, arc) in path.iter().enumerate() {
                    assert_eq!(arc.level, j);
                    assert_eq!(arc.row, row);
                    row = arc.to_row();
                }
                assert_eq!(row, NodeId(dst));
            }
        }
    }

    #[test]
    fn vertical_count_equals_hamming_distance() {
        let b = Butterfly::new(6);
        for (src, dst) in [(0u64, 63u64), (5, 5), (12, 33), (63, 0)] {
            let verticals = b
                .path(NodeId(src), NodeId(dst))
                .filter(|a| a.kind == ArcKind::Vertical)
                .count() as u32;
            assert_eq!(verticals, NodeId(src).hamming(NodeId(dst)));
        }
    }

    #[test]
    fn vertical_levels_match_differing_dims() {
        // The vertical arcs occur exactly at the levels where the rows
        // differ — the butterfly's hard-wired increasing index order.
        let b = Butterfly::new(6);
        let (src, dst) = (NodeId(0b010110), NodeId(0b101010));
        let vertical_levels: Vec<usize> = b
            .path(src, dst)
            .filter(|a| a.kind == ArcKind::Vertical)
            .map(|a| a.level)
            .collect();
        let expected: Vec<usize> = src.differing_dims(dst).collect();
        assert_eq!(vertical_levels, expected);
    }

    #[test]
    fn all_source_destination_pairs_unique_paths_3d() {
        // Distinct (src,dst) pairs never share both row trajectory and kinds
        // unless equal — path uniqueness sanity.
        let b = Butterfly::new(3);
        let mut sigs = std::collections::HashSet::new();
        for src in 0..8u64 {
            for dst in 0..8u64 {
                let sig: Vec<(u64, usize, bool)> = b
                    .path(NodeId(src), NodeId(dst))
                    .map(|a| (a.row.0, a.level, a.kind == ArcKind::Vertical))
                    .collect();
                assert!(sigs.insert(sig), "paths collide for ({src},{dst})");
            }
        }
        assert_eq!(sigs.len(), 64);
    }

    #[test]
    fn contains_bounds() {
        let b = Butterfly::new(2);
        assert!(b.contains(ButterflyNode {
            row: NodeId(3),
            level: 2
        }));
        assert!(!b.contains(ButterflyNode {
            row: NodeId(4),
            level: 0
        }));
        assert!(!b.contains(ButterflyNode {
            row: NodeId(0),
            level: 3
        }));
    }
}
