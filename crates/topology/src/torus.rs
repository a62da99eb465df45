//! The `k`-ary `d`-cube (torus) under dimension-ordered greedy routing.
//!
//! A torus node is a vector of `d` digits base `k`; each node has two
//! outgoing arcs per dimension (`+1` and `-1` modulo `k`), so the graph is
//! the direct product of `d` bidirectional `k`-rings. It generalises both
//! networks this repository grew from: `k = 2`-ish behaviour recovers the
//! hypercube's dimension structure, and `d = 1` is exactly the
//! bidirectional [`crate::Ring`]. Greedy routing composes the two rules:
//! fix the **lowest differing dimension first** (the hypercube's canonical
//! order, §1.1) and walk that digit's ring the **shorter way around**
//! (ties toward `+1`, the ring's clockwise tie rule) — so per-hop progress
//! is strict and paths are deterministic.
//!
//! Arc indexing is dense: arc `(node, dim, dir)` has index
//! `node·2d + 2·dim + dir` with `dir` 0 for `+1` ("up") and 1 for `-1`
//! ("down"), keeping all arcs of a node contiguous.

use crate::node::NodeId;

/// Maximum supported node count (`2^26`, matching the hypercube/ring caps
/// and the packed arc routing words the simulators use).
pub const MAX_TORUS_NODES: usize = 1 << 26;

/// The `k`-ary `d`-cube: `k^d` nodes, `2d` arcs per node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Torus {
    radix: usize,
    dim: usize,
    nodes: usize,
}

/// Direction of a torus arc within its dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TorusDirection {
    /// Digit `+1 (mod k)`.
    Up,
    /// Digit `-1 (mod k)`.
    Down,
}

impl Torus {
    /// A `k`-ary `d`-cube. Panics unless `k >= 3`, `d >= 1` and
    /// `k^d <= MAX_TORUS_NODES` (`k >= 3` keeps the two directions of a
    /// dimension distinct arcs to distinct neighbours).
    pub fn new(radix: usize, dim: usize) -> Torus {
        assert!(radix >= 3, "torus radix must be at least 3");
        assert!(dim >= 1, "torus needs at least one dimension");
        let mut nodes = 1usize;
        for _ in 0..dim {
            nodes = nodes
                .checked_mul(radix)
                .filter(|&n| n <= MAX_TORUS_NODES)
                .unwrap_or_else(|| panic!("torus size {radix}^{dim} exceeds {MAX_TORUS_NODES}"));
        }
        Torus { radix, dim, nodes }
    }

    /// The ring size `k` of every dimension.
    #[inline]
    pub fn radix(self) -> usize {
        self.radix
    }

    /// Number of dimensions `d`.
    #[inline]
    pub fn dim(self) -> usize {
        self.dim
    }

    /// Number of nodes `k^d`.
    #[inline]
    pub fn num_nodes(self) -> usize {
        self.nodes
    }

    /// Number of directed arcs `k^d · 2d`.
    #[inline]
    pub fn num_arcs(self) -> usize {
        self.nodes * 2 * self.dim
    }

    /// Network diameter `d·⌊k/2⌋`.
    #[inline]
    pub fn diameter(self) -> usize {
        self.dim * (self.radix / 2)
    }

    /// Iterator over all node identities `0..k^d`.
    pub fn nodes(self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.nodes).map(|v| NodeId(v as u64))
    }

    /// Digit `i` of `node` (base-`k` little-endian).
    #[inline]
    pub fn digit(self, node: u64, i: usize) -> u64 {
        debug_assert!(i < self.dim);
        let k = self.radix as u64;
        (node / k.pow(i as u32)) % k
    }

    /// Greedy (shortest-path) distance: the sum over dimensions of each
    /// digit ring's shorter-way distance.
    pub fn distance(self, src: u64, dst: u64) -> usize {
        let k = self.radix as u64;
        let (mut s, mut t, mut total) = (src, dst, 0usize);
        for _ in 0..self.dim {
            let cw = ((t % k) + k - (s % k)) % k;
            total += cw.min(k - cw) as usize;
            s /= k;
            t /= k;
        }
        total
    }

    /// The greedy step out of `src` toward `dst != src`: the lowest
    /// dimension whose digits differ, walked the shorter way around its
    /// ring (ties toward [`TorusDirection::Up`]).
    #[inline]
    pub fn greedy_step(self, src: u64, dst: u64) -> (usize, TorusDirection) {
        debug_assert!(src != dst);
        let k = self.radix as u64;
        let (mut s, mut t) = (src, dst);
        for i in 0..self.dim {
            let (sd, td) = (s % k, t % k);
            if sd != td {
                let cw = (td + k - sd) % k;
                let dir = if 2 * cw > k {
                    TorusDirection::Down
                } else {
                    TorusDirection::Up
                };
                return (i, dir);
            }
            s /= k;
            t /= k;
        }
        unreachable!("greedy_step on equal nodes");
    }

    /// Dense index of `node`'s outgoing arc in dimension `dim` and
    /// `direction`: `node·2d + 2·dim + dir`.
    #[inline]
    pub fn arc_index(self, node: u64, dim: usize, direction: TorusDirection) -> usize {
        debug_assert!(dim < self.dim && (node as usize) < self.nodes);
        node as usize * 2 * self.dim + 2 * dim + (direction == TorusDirection::Down) as usize
    }

    /// Tail node, dimension and direction of the arc with dense index
    /// `idx`.
    #[inline]
    pub fn arc_from_index(self, idx: usize) -> (u64, usize, TorusDirection) {
        debug_assert!(idx < self.num_arcs());
        let node = (idx / (2 * self.dim)) as u64;
        let rest = idx % (2 * self.dim);
        let dir = if rest & 1 == 0 {
            TorusDirection::Up
        } else {
            TorusDirection::Down
        };
        (node, rest / 2, dir)
    }

    /// Head node of `node`'s arc in dimension `dim` and `direction`.
    #[inline]
    pub fn step(self, node: u64, dim: usize, direction: TorusDirection) -> u64 {
        let k = self.radix as u64;
        let base = k.pow(dim as u32);
        let digit = (node / base) % k;
        let next = match direction {
            TorusDirection::Up => (digit + 1) % k,
            TorusDirection::Down => (digit + k - 1) % k,
        };
        node - digit * base + next * base
    }

    /// Expected greedy path length under uniform destinations (including
    /// the origin itself): `d · ⌊k²/4⌋ / k` — each digit is an independent
    /// uniform bidirectional-ring offset.
    pub fn mean_path_length(self) -> f64 {
        let k = self.radix;
        self.dim as f64 * ((k * k) / 4) as f64 / k as f64
    }

    /// Per-arc load factor under per-node Poisson rate `λ` and uniform
    /// destinations: by symmetry every arc of one direction of one
    /// dimension sees `λ · E[up-hops per digit] = λ·m(m+1)/2k` with
    /// `m = ⌊k/2⌋` (the bidirectional ring's formula, per dimension).
    /// Stability needs this below 1.
    pub fn load_factor(self, lambda: f64) -> f64 {
        let m = self.radix / 2;
        lambda * (m * (m + 1) / 2) as f64 / self.radix as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_diameter() {
        let t = Torus::new(4, 3);
        assert_eq!(t.num_nodes(), 64);
        assert_eq!(t.num_arcs(), 64 * 6);
        assert_eq!(t.diameter(), 6);
        assert_eq!(Torus::new(3, 1).num_arcs(), 6);
    }

    #[test]
    #[should_panic(expected = "radix")]
    fn radix_two_rejected() {
        Torus::new(2, 4);
    }

    #[test]
    fn digits_round_trip() {
        let t = Torus::new(5, 3);
        let node = 2 + 4 * 5 + 3 * 25; // digits (2, 4, 3)
        assert_eq!(t.digit(node, 0), 2);
        assert_eq!(t.digit(node, 1), 4);
        assert_eq!(t.digit(node, 2), 3);
    }

    #[test]
    fn distance_sums_ring_distances() {
        let t = Torus::new(5, 2);
        // (0,0) → (2,4): digit 0 goes +2, digit 1 goes -1.
        let dst = 2 + 4 * 5;
        assert_eq!(t.distance(0, dst), 3);
        assert_eq!(t.distance(dst, 0), 3);
        assert_eq!(t.distance(dst, dst), 0);
    }

    #[test]
    fn greedy_walk_reaches_destination_in_distance_hops() {
        let t = Torus::new(4, 2);
        for src in 0..16u64 {
            for dst in 0..16u64 {
                let mut at = src;
                let mut hops = 0;
                while at != dst {
                    let (dim, dir) = t.greedy_step(at, dst);
                    let before = t.distance(at, dst);
                    at = t.step(at, dim, dir);
                    assert_eq!(t.distance(at, dst), before - 1, "{src}→{dst} via {at}");
                    hops += 1;
                }
                assert_eq!(hops, t.distance(src, dst), "{src}→{dst}");
            }
        }
    }

    #[test]
    fn greedy_ties_go_up_and_low_dimension_first() {
        let t = Torus::new(4, 2);
        // Antipodal digit (distance 2 = k/2): tie broken Up.
        assert_eq!(t.greedy_step(0, 2), (0, TorusDirection::Up));
        // Lowest differing dimension first: dest (1, 3) fixes digit 0 first.
        let dst = 1 + 3 * 4;
        assert_eq!(t.greedy_step(0, dst), (0, TorusDirection::Up));
        // Digit 0 equal → dimension 1; offset 3 of 4 goes Down.
        assert_eq!(t.greedy_step(1, dst), (1, TorusDirection::Down));
    }

    #[test]
    fn arc_index_round_trips_densely() {
        let t = Torus::new(3, 2);
        let mut seen = vec![false; t.num_arcs()];
        for node in 0..9u64 {
            for dim in 0..2usize {
                for dir in [TorusDirection::Up, TorusDirection::Down] {
                    let idx = t.arc_index(node, dim, dir);
                    assert!(!seen[idx], "collision at {idx}");
                    seen[idx] = true;
                    assert_eq!(t.arc_from_index(idx), (node, dim, dir));
                    assert_ne!(t.step(node, dim, dir), node, "self-loop");
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn closed_forms_match_distance_sums() {
        for (k, d) in [(3usize, 2usize), (4, 2), (5, 2), (6, 1), (3, 3)] {
            let t = Torus::new(k, d);
            let n = t.num_nodes();
            let mean: f64 = (0..n as u64)
                .map(|dst| t.distance(0, dst) as f64)
                .sum::<f64>()
                / n as f64;
            assert!(
                (t.mean_path_length() - mean).abs() < 1e-12,
                "k={k} d={d}: {} vs {mean}",
                t.mean_path_length()
            );
            // Up-hops of dimension 0 over uniform destinations.
            let up0: usize = (0..n as u64)
                .map(|dst| {
                    let cw = ((t.digit(dst, 0) + k as u64 - t.digit(0, 0)) % k as u64) as usize;
                    if 2 * cw > k {
                        0
                    } else {
                        cw
                    }
                })
                .sum();
            let expect = up0 as f64 / n as f64;
            assert!(
                (t.load_factor(1.0) - expect).abs() < 1e-12,
                "k={k} d={d}: {} vs {expect}",
                t.load_factor(1.0)
            );
        }
    }
}
