//! The `n`-node ring under greedy (shortest-way-around) routing.
//!
//! The ring is the simplest topology outside the paper's pair, and the
//! canonical proof that the simulation core is topology-generic: greedy
//! routing in rings is the setting of Abraham et al., *Papillon: Greedy
//! Routing in Rings* (the related-work direction this reproduction grows
//! toward). Two variants:
//!
//! * **Unidirectional** (clockwise): node `i` has one outgoing arc
//!   `i → i+1 (mod n)`; the unique greedy route walks clockwise until the
//!   destination. Mean path length under uniform destinations is
//!   `(n-1)/2`, so stability needs `λ(n-1)/2 < 1`.
//! * **Bidirectional**: node `i` also has `i → i-1 (mod n)`; greedy takes
//!   the shorter way around (ties at distance `n/2` break clockwise, so
//!   routes stay deterministic). Mean path length is `≈ n/4`.
//!
//! Arc indexing is dense, like the hypercube's `node·d + dim` layout:
//! clockwise arc of node `i` is `2i`, counter-clockwise `2i + 1`
//! (unidirectional rings use index `i` directly).

use crate::node::NodeId;
use serde::{Deserialize, Serialize};

/// Maximum supported ring size (`2^26` nodes matches the hypercube cap and
/// keeps node ids inside the packed arc routing words the simulators
/// use).
pub const MAX_RING_NODES: usize = 1 << 26;

/// The `n`-node ring (cycle graph), directed clockwise or both ways.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ring {
    nodes: usize,
    bidirectional: bool,
}

/// Direction of a ring arc.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RingDirection {
    /// `i → i + 1 (mod n)`.
    Clockwise,
    /// `i → i - 1 (mod n)` (bidirectional rings only).
    CounterClockwise,
}

impl Ring {
    /// An `n`-node ring. Panics unless `3 <= n <= MAX_RING_NODES`.
    pub fn new(nodes: usize, bidirectional: bool) -> Ring {
        assert!(nodes >= 3, "a ring needs at least 3 nodes");
        assert!(
            nodes <= MAX_RING_NODES,
            "ring size must be ≤ {MAX_RING_NODES}"
        );
        Ring {
            nodes,
            bidirectional,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(self) -> usize {
        self.nodes
    }

    /// Whether counter-clockwise arcs exist.
    #[inline]
    pub fn bidirectional(self) -> bool {
        self.bidirectional
    }

    /// Number of directed arcs: `n` clockwise-only, `2n` bidirectional.
    #[inline]
    pub fn num_arcs(self) -> usize {
        if self.bidirectional {
            2 * self.nodes
        } else {
            self.nodes
        }
    }

    /// Network diameter: `n-1` clockwise-only, `⌊n/2⌋` bidirectional.
    #[inline]
    pub fn diameter(self) -> usize {
        if self.bidirectional {
            self.nodes / 2
        } else {
            self.nodes - 1
        }
    }

    /// Iterator over all node identities `0..n`.
    pub fn nodes(self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.nodes).map(|v| NodeId(v as u64))
    }

    /// Clockwise distance from `src` to `dst` (arcs walked going `+1`).
    #[inline]
    pub fn clockwise_distance(self, src: u64, dst: u64) -> usize {
        let n = self.nodes as u64;
        debug_assert!(src < n && dst < n);
        ((dst + n - src) % n) as usize
    }

    /// Greedy (shortest-path) distance from `src` to `dst`.
    #[inline]
    pub fn distance(self, src: u64, dst: u64) -> usize {
        let cw = self.clockwise_distance(src, dst);
        if self.bidirectional {
            cw.min(self.nodes - cw)
        } else {
            cw
        }
    }

    /// The greedy direction out of `src` toward `dst != src`: the shorter
    /// way around, clockwise on ties (and always, when unidirectional).
    #[inline]
    pub fn greedy_direction(self, src: u64, dst: u64) -> RingDirection {
        debug_assert!(src != dst);
        let cw = self.clockwise_distance(src, dst);
        if self.bidirectional && 2 * cw > self.nodes {
            RingDirection::CounterClockwise
        } else {
            RingDirection::Clockwise
        }
    }

    /// Dense index of `node`'s outgoing arc in `direction`.
    ///
    /// Unidirectional rings index clockwise arcs as `node`; bidirectional
    /// rings interleave (`2·node` clockwise, `2·node + 1` counter-
    /// clockwise), keeping both arcs of a node on one cache line.
    #[inline]
    pub fn arc_index(self, node: u64, direction: RingDirection) -> usize {
        debug_assert!(self.bidirectional || direction == RingDirection::Clockwise);
        if self.bidirectional {
            2 * node as usize + (direction == RingDirection::CounterClockwise) as usize
        } else {
            node as usize
        }
    }

    /// Tail node and direction of the arc with dense index `idx`.
    #[inline]
    pub fn arc_from_index(self, idx: usize) -> (u64, RingDirection) {
        debug_assert!(idx < self.num_arcs());
        if self.bidirectional {
            let dir = if idx & 1 == 0 {
                RingDirection::Clockwise
            } else {
                RingDirection::CounterClockwise
            };
            ((idx >> 1) as u64, dir)
        } else {
            (idx as u64, RingDirection::Clockwise)
        }
    }

    /// Head node of `node`'s arc in `direction`.
    #[inline]
    pub fn step(self, node: u64, direction: RingDirection) -> u64 {
        let n = self.nodes as u64;
        match direction {
            RingDirection::Clockwise => (node + 1) % n,
            RingDirection::CounterClockwise => (node + n - 1) % n,
        }
    }

    /// Expected greedy path length under uniform destinations (including
    /// the origin itself, which contributes zero): `(n-1)/2` clockwise,
    /// `⌊n²/4⌋/n ≈ n/4` bidirectional. This is the ring's analogue of
    /// the hypercube's `dp` (Lemma 1). Closed forms, so the engine can
    /// call this per construction even at `n = 2^26`.
    pub fn mean_path_length(self) -> f64 {
        let n = self.nodes as f64;
        if self.bidirectional {
            // Σ_d min(d, n-d) over d in 0..n is ⌊n²/4⌋.
            ((self.nodes * self.nodes) / 4) as f64 / n
        } else {
            (n - 1.0) / 2.0
        }
    }

    /// Per-arc load factor under per-node Poisson rate `λ` and uniform
    /// destinations: by symmetry every arc (or every arc of one direction)
    /// sees the same rate, `λ · E[hops in that direction]`. Stability
    /// needs this below 1 — the ring's analogue of `ρ = λp` (Prop. 5).
    pub fn load_factor(self, lambda: f64) -> f64 {
        if self.bidirectional {
            // Clockwise hops only (ccw is symmetric by the tie rule up to
            // an O(1/n) asymmetry for even n, where antipode ties go
            // clockwise): destinations with 2·cw ≤ n contribute cw, i.e.
            // Σ_{k=1}^{⌊n/2⌋} k = m(m+1)/2 over the n destinations.
            let m = self.nodes / 2;
            lambda * (m * (m + 1) / 2) as f64 / self.nodes as f64
        } else {
            lambda * self.mean_path_length()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_diameter() {
        let uni = Ring::new(8, false);
        assert_eq!(uni.num_nodes(), 8);
        assert_eq!(uni.num_arcs(), 8);
        assert_eq!(uni.diameter(), 7);
        let bi = Ring::new(8, true);
        assert_eq!(bi.num_arcs(), 16);
        assert_eq!(bi.diameter(), 4);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_ring_rejected() {
        Ring::new(2, false);
    }

    #[test]
    fn unidirectional_distance_is_clockwise() {
        let r = Ring::new(10, false);
        assert_eq!(r.distance(0, 1), 1);
        assert_eq!(r.distance(1, 0), 9);
        assert_eq!(r.distance(7, 7), 0);
    }

    #[test]
    fn bidirectional_distance_is_shorter_way() {
        let r = Ring::new(10, true);
        assert_eq!(r.distance(0, 1), 1);
        assert_eq!(r.distance(1, 0), 1);
        assert_eq!(r.distance(0, 5), 5);
        assert_eq!(r.distance(0, 6), 4);
    }

    #[test]
    fn greedy_direction_shorter_way_ties_clockwise() {
        let r = Ring::new(8, true);
        assert_eq!(r.greedy_direction(0, 3), RingDirection::Clockwise);
        assert_eq!(r.greedy_direction(0, 5), RingDirection::CounterClockwise);
        // Antipode at distance 4 = n/2: tie broken clockwise.
        assert_eq!(r.greedy_direction(0, 4), RingDirection::Clockwise);
    }

    #[test]
    fn greedy_walk_reaches_destination_in_distance_hops() {
        for bidirectional in [false, true] {
            let r = Ring::new(9, bidirectional);
            for src in 0..9u64 {
                for dst in 0..9u64 {
                    let mut at = src;
                    let mut hops = 0;
                    while at != dst {
                        let dir = r.greedy_direction(at, dst);
                        // Greedy strictly shrinks the distance.
                        let before = r.distance(at, dst);
                        at = r.step(at, dir);
                        assert_eq!(r.distance(at, dst), before - 1);
                        hops += 1;
                    }
                    assert_eq!(hops, r.distance(src, dst), "{src}→{dst}");
                }
            }
        }
    }

    #[test]
    fn arc_index_round_trips() {
        for bidirectional in [false, true] {
            let r = Ring::new(7, bidirectional);
            let mut seen = vec![false; r.num_arcs()];
            for node in 0..7u64 {
                let dirs: &[RingDirection] = if bidirectional {
                    &[RingDirection::Clockwise, RingDirection::CounterClockwise]
                } else {
                    &[RingDirection::Clockwise]
                };
                for &dir in dirs {
                    let idx = r.arc_index(node, dir);
                    assert!(!seen[idx], "collision at {idx}");
                    seen[idx] = true;
                    assert_eq!(r.arc_from_index(idx), (node, dir));
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn closed_forms_match_distance_sums() {
        // The O(1) formulas equal the brute-force distance sums.
        for n in 3..=40usize {
            for bidirectional in [false, true] {
                let r = Ring::new(n, bidirectional);
                let mean: f64 =
                    (0..n as u64).map(|d| r.distance(0, d) as f64).sum::<f64>() / n as f64;
                assert!(
                    (r.mean_path_length() - mean).abs() < 1e-12,
                    "n={n} bidir={bidirectional}: {} vs {mean}",
                    r.mean_path_length()
                );
                let cw_total: usize = (0..n as u64)
                    .map(|d| {
                        let cw = r.clockwise_distance(0, d);
                        if bidirectional && 2 * cw > n {
                            0
                        } else {
                            cw
                        }
                    })
                    .sum();
                let expect = cw_total as f64 / n as f64;
                assert!(
                    (r.load_factor(1.0) - expect).abs() < 1e-12,
                    "n={n} bidir={bidirectional}: {} vs {expect}",
                    r.load_factor(1.0)
                );
            }
        }
    }

    #[test]
    fn mean_path_and_load_factor() {
        let uni = Ring::new(9, false);
        assert!((uni.mean_path_length() - 4.0).abs() < 1e-12); // (n-1)/2
        assert!((uni.load_factor(0.2) - 0.8).abs() < 1e-12);
        let bi = Ring::new(8, true);
        // Distances from 0: 0,1,2,3,4,3,2,1 → mean 2.0.
        assert!((bi.mean_path_length() - 2.0).abs() < 1e-12);
        // Clockwise hops: 0,1,2,3,4,0,0,0 → 10/8 per packet.
        assert!((bi.load_factor(0.4) - 0.5).abs() < 1e-12);
    }
}
