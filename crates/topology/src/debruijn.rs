//! The binary de Bruijn graph `B(2, n)` under shift-register greedy
//! routing.
//!
//! Node `x` (an `n`-bit word) has arcs to `(2x + b) mod 2^n` for
//! `b ∈ {0, 1}` — shifting one bit in from the right. Routing from `x` to
//! `z` shifts in the bits of `z` from the most significant end of the
//! *unmatched* suffix: the shortest path has length
//! `min { k : high n-k bits of z = low n-k bits of x }`, and taking the
//! next bit of that overlap-maximising path shortens the distance by
//! exactly one per hop (one hop can never shorten it by more, so greedy
//! progress is strict). Diameter `n` with `log N` degree — the classic
//! constant-degree alternative to the hypercube's `log N` degree.
//!
//! Arc indexing is dense and **excludes the two self-loops** (`0 → 0` and
//! `2^n-1 → 2^n-1`), which no greedy route ever takes: the raw arc
//! `(x, b)` has raw index `2x + b`; the self-loops are raw `0` and
//! `2^(n+1)-1`, so dense index = raw - 1 over `0..2^(n+1)-2`.

use crate::node::NodeId;

/// Maximum supported shift-register width (nodes `2^26`, matching the
/// hypercube/ring/torus caps).
pub const MAX_DEBRUIJN_DIM: usize = 26;

/// The binary de Bruijn graph on `2^n` nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeBruijn {
    dim: usize,
}

impl DeBruijn {
    /// The de Bruijn graph `B(2, n)`. Panics unless `1 <= n <= 26`.
    pub fn new(dim: usize) -> DeBruijn {
        assert!(
            (1..=MAX_DEBRUIJN_DIM).contains(&dim),
            "de Bruijn width must be in 1..={MAX_DEBRUIJN_DIM}"
        );
        DeBruijn { dim }
    }

    /// Shift-register width `n`.
    #[inline]
    pub fn dim(self) -> usize {
        self.dim
    }

    /// Number of nodes `2^n`.
    #[inline]
    pub fn num_nodes(self) -> usize {
        1 << self.dim
    }

    /// Number of directed arcs `2^(n+1) - 2` (the two self-loops are
    /// excluded from the arc space).
    #[inline]
    pub fn num_arcs(self) -> usize {
        (1 << (self.dim + 1)) - 2
    }

    /// Network diameter `n`.
    #[inline]
    pub fn diameter(self) -> usize {
        self.dim
    }

    /// Iterator over all node identities `0..2^n`.
    pub fn nodes(self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.num_nodes()).map(|v| NodeId(v as u64))
    }

    /// Head of the arc shifting bit `b` into `x`: `(2x + b) mod 2^n`.
    #[inline]
    pub fn shift(self, node: u64, bit: u64) -> u64 {
        debug_assert!(bit <= 1);
        ((node << 1) | bit) & ((1u64 << self.dim) - 1)
    }

    /// Shortest-path distance: the smallest `k` such that the high
    /// `n - k` bits of `dst` equal the low `n - k` bits of `src` (the
    /// suffix of `src` already forms a prefix of `dst`).
    pub fn distance(self, src: u64, dst: u64) -> usize {
        let n = self.dim;
        for k in 0..n {
            if dst >> k == src & ((1u64 << (n - k)) - 1) {
                return k;
            }
        }
        n
    }

    /// The bit the greedy (shortest-path) route shifts in next:
    /// bit `distance - 1` of `dst`. Requires `src != dst`.
    #[inline]
    pub fn greedy_bit(self, src: u64, dst: u64) -> u64 {
        debug_assert!(src != dst);
        let d = self.distance(src, dst);
        (dst >> (d - 1)) & 1
    }

    /// Dense arc index of the arc shifting `bit` into `node` (raw index
    /// `2·node + bit`, minus one for the excluded `0 → 0` self-loop).
    /// Panics in debug builds on the two self-loop arcs.
    #[inline]
    pub fn arc_index(self, node: u64, bit: u64) -> usize {
        let raw = 2 * node as usize + bit as usize;
        debug_assert!(
            raw != 0 && raw != 2 * self.num_nodes() - 1,
            "self-loop arc has no index"
        );
        raw - 1
    }

    /// Tail node and shifted-in bit of the arc with dense index `idx`.
    #[inline]
    pub fn arc_from_index(self, idx: usize) -> (u64, u64) {
        debug_assert!(idx < self.num_arcs());
        let raw = idx + 1;
        ((raw >> 1) as u64, (raw & 1) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_diameter() {
        let g = DeBruijn::new(4);
        assert_eq!(g.num_nodes(), 16);
        assert_eq!(g.num_arcs(), 30);
        assert_eq!(g.diameter(), 4);
    }

    #[test]
    fn shift_wraps_at_width() {
        let g = DeBruijn::new(3);
        assert_eq!(g.shift(0b110, 1), 0b101);
        assert_eq!(g.shift(0b011, 0), 0b110);
    }

    #[test]
    fn distance_is_overlap_complement() {
        let g = DeBruijn::new(3);
        assert_eq!(g.distance(0b101, 0b101), 0);
        // 101 → 011: suffix "01" of src is prefix "01" of dst → 1 hop.
        assert_eq!(g.distance(0b101, 0b011), 1);
        assert_eq!(g.distance(0b000, 0b111), 3);
        assert_eq!(g.distance(0b000, 0b100), 3);
        assert_eq!(g.distance(0b000, 0b001), 1);
    }

    #[test]
    fn greedy_walk_reaches_destination_in_distance_hops() {
        let g = DeBruijn::new(4);
        for src in 0..16u64 {
            for dst in 0..16u64 {
                let mut at = src;
                let mut hops = 0;
                while at != dst {
                    let before = g.distance(at, dst);
                    at = g.shift(at, g.greedy_bit(at, dst));
                    assert_eq!(g.distance(at, dst), before - 1, "{src}→{dst} via {at}");
                    hops += 1;
                }
                assert_eq!(hops, g.distance(src, dst), "{src}→{dst}");
            }
        }
    }

    #[test]
    fn greedy_never_takes_a_self_loop() {
        // The only self-loops are at 0 and all-ones; greedy shifts in the
        // destination's highest unmatched bit, which at node 0 is always 1
        // (else the distance were shorter) and at all-ones always 0.
        let g = DeBruijn::new(5);
        for dst in 1..32u64 {
            assert_eq!(g.greedy_bit(0, dst), 1, "dst {dst:b}");
            assert_eq!(g.greedy_bit(31, dst - 1), 0, "dst {:b}", dst - 1);
        }
    }

    #[test]
    fn arc_index_round_trips_densely_without_self_loops() {
        let g = DeBruijn::new(3);
        let mut seen = vec![false; g.num_arcs()];
        for node in 0..8u64 {
            for bit in 0..2u64 {
                if g.shift(node, bit) == node {
                    continue; // the two self-loops
                }
                let idx = g.arc_index(node, bit);
                assert!(!seen[idx], "collision at {idx}");
                seen[idx] = true;
                assert_eq!(g.arc_from_index(idx), (node, bit));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
