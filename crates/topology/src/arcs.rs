//! Arc identities and dense arc indexing.
//!
//! Both simulators are *arc-indexed*: every directed arc of the network maps
//! to a dense integer so that per-arc queue state lives in flat vectors
//! (cache-friendly, no hashing).

use crate::node::NodeId;
use serde::{Deserialize, Serialize};

/// A directed hypercube arc `(from, from ⊕ e_dim)`.
///
/// The paper calls `dim` the arc's *type*; the set of all arcs of one type
/// forms a *dimension* (paper §1.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HypercubeArc {
    /// Tail node of the arc.
    pub from: NodeId,
    /// Dimension (type) of the arc, `0..d`.
    pub dim: usize,
}

impl HypercubeArc {
    /// Head node of the arc: `from ⊕ e_dim`.
    #[inline]
    pub fn to(self) -> NodeId {
        self.from.flip(self.dim)
    }

    /// Dense index of this arc in a `d`-cube: `from * d + dim`.
    ///
    /// The inverse is [`HypercubeArc::from_index`]. Indices cover
    /// `0..d * 2^d` without gaps.
    #[inline]
    pub fn index(self, d: usize) -> usize {
        self.from.0 as usize * d + self.dim
    }

    /// Reconstruct an arc from its dense index.
    #[inline]
    pub fn from_index(idx: usize, d: usize) -> HypercubeArc {
        HypercubeArc {
            from: NodeId((idx / d) as u64),
            dim: idx % d,
        }
    }
}

/// Whether a butterfly arc keeps the row (`Straight`) or crosses the level's
/// dimension (`Vertical`) — paper §4.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArcKind {
    /// `[x; j] → [x; j+1]`, written `(x; j; s)` in the paper.
    Straight,
    /// `[x; j] → [x ⊕ e_j; j+1]`, written `(x; j; v)` in the paper.
    Vertical,
}

impl ArcKind {
    /// 0 for straight, 1 for vertical; used by the dense index.
    #[inline]
    pub fn as_usize(self) -> usize {
        match self {
            ArcKind::Straight => 0,
            ArcKind::Vertical => 1,
        }
    }

    /// Inverse of [`ArcKind::as_usize`].
    #[inline]
    pub fn from_usize(v: usize) -> ArcKind {
        if v == 0 {
            ArcKind::Straight
        } else {
            ArcKind::Vertical
        }
    }
}

impl std::fmt::Display for ArcKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArcKind::Straight => write!(f, "s"),
            ArcKind::Vertical => write!(f, "v"),
        }
    }
}

/// A directed butterfly arc out of node `[row; level]`.
///
/// Levels are numbered `0..d` for arcs (an arc of level `j` connects node
/// level `j` to node level `j + 1`; the paper numbers node levels `1..=d+1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ButterflyArc {
    /// Row of the tail node.
    pub row: NodeId,
    /// Arc level `0..d`.
    pub level: usize,
    /// Straight or vertical.
    pub kind: ArcKind,
}

impl ButterflyArc {
    /// Row of the head node (level `level + 1`).
    #[inline]
    pub fn to_row(self) -> NodeId {
        match self.kind {
            ArcKind::Straight => self.row,
            ArcKind::Vertical => self.row.flip(self.level),
        }
    }

    /// Dense index of this arc in a `d`-dimensional butterfly:
    /// `(level * 2^d + row) * 2 + kind`. Indices cover `0..d * 2^(d+1)`.
    #[inline]
    pub fn index(self, d: usize) -> usize {
        ((self.level << d) + self.row.0 as usize) * 2 + self.kind.as_usize()
    }

    /// Reconstruct an arc from its dense index.
    #[inline]
    pub fn from_index(idx: usize, d: usize) -> ButterflyArc {
        let kind = ArcKind::from_usize(idx & 1);
        let cell = idx >> 1;
        let rows = 1usize << d;
        ButterflyArc {
            row: NodeId((cell % rows) as u64),
            level: cell / rows,
            kind,
        }
    }
}

impl std::fmt::Display for ButterflyArc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}; {}; {})", self.row, self.level, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_arc_head() {
        let a = HypercubeArc {
            from: NodeId(0b0100),
            dim: 0,
        };
        assert_eq!(a.to(), NodeId(0b0101));
        let b = HypercubeArc {
            from: NodeId(0b0100),
            dim: 2,
        };
        assert_eq!(b.to(), NodeId(0b0000));
    }

    #[test]
    fn hypercube_arc_index_roundtrip_exhaustive() {
        let d = 4;
        let mut seen = vec![false; d << d];
        for node in 0..(1u64 << d) {
            for dim in 0..d {
                let arc = HypercubeArc {
                    from: NodeId(node),
                    dim,
                };
                let idx = arc.index(d);
                assert!(idx < d << d);
                assert!(!seen[idx], "index collision at {idx}");
                seen[idx] = true;
                assert_eq!(HypercubeArc::from_index(idx, d), arc);
            }
        }
        assert!(seen.iter().all(|&s| s), "index space not covered");
    }

    #[test]
    fn butterfly_arc_heads() {
        let s = ButterflyArc {
            row: NodeId(0b10),
            level: 0,
            kind: ArcKind::Straight,
        };
        assert_eq!(s.to_row(), NodeId(0b10));
        let v = ButterflyArc {
            row: NodeId(0b10),
            level: 1,
            kind: ArcKind::Vertical,
        };
        assert_eq!(v.to_row(), NodeId(0b00));
    }

    #[test]
    fn butterfly_arc_index_roundtrip_exhaustive() {
        let d = 3;
        let total = d << (d + 1);
        let mut seen = vec![false; total];
        for level in 0..d {
            for row in 0..(1u64 << d) {
                for kind in [ArcKind::Straight, ArcKind::Vertical] {
                    let arc = ButterflyArc {
                        row: NodeId(row),
                        level,
                        kind,
                    };
                    let idx = arc.index(d);
                    assert!(idx < total, "index {idx} out of range {total}");
                    assert!(!seen[idx]);
                    seen[idx] = true;
                    assert_eq!(ButterflyArc::from_index(idx, d), arc);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn arc_kind_display() {
        let v = ButterflyArc {
            row: NodeId(3),
            level: 1,
            kind: ArcKind::Vertical,
        };
        assert_eq!(v.to_string(), "(3; 1; v)");
    }
}
