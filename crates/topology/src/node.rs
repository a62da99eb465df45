//! Node identities and bit-level helpers.
//!
//! A hypercube node is identified by the integer whose binary representation
//! is the node's binary identity `(z_{d-1}, ..., z_0)` (paper §1.1, shifted
//! to 0-based dimensions).

use serde::{Deserialize, Serialize};

/// Identity of a hypercube node (also a butterfly *row*).
///
/// Bit `i` of the wrapped integer is the node's coordinate along dimension
/// `i`. Supports dimensions up to 63.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u64);

impl NodeId {
    /// The all-zero node, origin of the canonical coordinate system.
    pub const ZERO: NodeId = NodeId(0);

    /// Value of the `dim`-th coordinate bit.
    #[inline]
    pub fn bit(self, dim: usize) -> bool {
        (self.0 >> dim) & 1 == 1
    }

    /// The node reached from `self` by crossing dimension `dim`
    /// (`e_j`-translation in the paper: `x ⊕ e_{dim+1}`).
    #[inline]
    pub fn flip(self, dim: usize) -> NodeId {
        NodeId(self.0 ^ (1 << dim))
    }

    /// Bitwise XOR of two identities (`x ⊕ y` in the paper).
    #[inline]
    pub fn xor(self, other: NodeId) -> NodeId {
        NodeId(self.0 ^ other.0)
    }

    /// Hamming distance `H(x, y)`: the number of coordinate bits in which
    /// the two identities differ. Every path between the nodes contains at
    /// least this many arcs (paper §1.1).
    #[inline]
    pub fn hamming(self, other: NodeId) -> u32 {
        (self.0 ^ other.0).count_ones()
    }

    /// Iterator over the dimensions in which `self` and `other` differ, in
    /// **increasing index order** — precisely the order in which the greedy
    /// scheme crosses them.
    #[inline]
    pub fn differing_dims(self, other: NodeId) -> DifferingDims {
        DifferingDims {
            rest: self.0 ^ other.0,
        }
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NodeId({:#b})", self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(v: u64) -> Self {
        NodeId(v)
    }
}

/// Iterator over set bits of an XOR mask in increasing order.
///
/// Yields the dimensions a greedy packet must cross, lowest first.
#[derive(Clone, Debug)]
pub struct DifferingDims {
    rest: u64,
}

impl Iterator for DifferingDims {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.rest == 0 {
            None
        } else {
            let d = self.rest.trailing_zeros() as usize;
            self.rest &= self.rest - 1;
            Some(d)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.rest.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for DifferingDims {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_and_flip_roundtrip() {
        let x = NodeId(0b1010);
        assert!(!x.bit(0));
        assert!(x.bit(1));
        assert!(!x.bit(2));
        assert!(x.bit(3));
        assert_eq!(x.flip(0), NodeId(0b1011));
        assert_eq!(x.flip(0).flip(0), x);
        assert_eq!(x.flip(3), NodeId(0b0010));
    }

    #[test]
    fn hamming_matches_bit_count() {
        assert_eq!(NodeId(0).hamming(NodeId(0)), 0);
        assert_eq!(NodeId(0).hamming(NodeId(0b1111)), 4);
        assert_eq!(NodeId(0b1010).hamming(NodeId(0b0101)), 4);
        assert_eq!(NodeId(0b1010).hamming(NodeId(0b1000)), 1);
    }

    #[test]
    fn hamming_is_symmetric_and_triangle() {
        // Small exhaustive check on 4-bit identities.
        for a in 0..16u64 {
            for b in 0..16u64 {
                let (a, b) = (NodeId(a), NodeId(b));
                assert_eq!(a.hamming(b), b.hamming(a));
                for c in 0..16u64 {
                    let c = NodeId(c);
                    assert!(a.hamming(c) <= a.hamming(b) + b.hamming(c));
                }
            }
        }
    }

    #[test]
    fn differing_dims_increasing_and_complete() {
        let x = NodeId(0b0000);
        let z = NodeId(0b1011);
        let dims: Vec<usize> = x.differing_dims(z).collect();
        assert_eq!(dims, vec![0, 1, 3]);
        // Increasing order is the defining property of the canonical path.
        assert!(dims.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(dims.len() as u32, x.hamming(z));
    }

    #[test]
    fn exact_size_iterator_len() {
        let it = NodeId(0).differing_dims(NodeId(0b1101));
        assert_eq!(it.len(), 3);
    }
}
