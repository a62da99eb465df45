//! The binary fat tree (folded butterfly), the high-redundancy endpoint
//! of the fault-survivability spectrum.
//!
//! `L + 1` levels of `2^L` slots. Node `(w; ℓ)` — word `w`, level `ℓ` —
//! has two **up** arcs for `ℓ < L` (straight to `(w; ℓ+1)` and flipped to
//! `(w ⊕ e_ℓ; ℓ+1)`) and two **down** arcs for `ℓ > 0` (to `(w'; ℓ-1)`
//! with bit `ℓ-1` of `w'` forced to 0 or 1). Packets inject at the
//! level-0 **leaves** and are delivered at leaves: a route climbs to the
//! least-common-ancestor level of source and destination, then descends
//! fixing one destination bit per hop. The leaves reachable below
//! `(w; ℓ)` are exactly those agreeing with `w` on bits `ℓ..` — the
//! subtree of the fat tree rooted there.
//!
//! The defining property: **both** up arcs out of a node whose subtree
//! misses the destination make strict shortest-path progress (flipping
//! bit `ℓ` never matters above level `ℓ`), so the ascent has genuine
//! two-way path diversity at every hop. That redundancy is what the
//! multipath fault fallbacks exploit, and what the unique-path butterfly
//! lacks — the fat tree is the natural comparison endpoint.

use crate::node::NodeId;

/// Maximum supported fat-tree level count (bounded like the butterfly so
/// packed arc routing words and dense masks stay cheap).
pub const MAX_LEVELS: usize = 20;

/// The binary fat tree with `L + 1` levels of `2^L` slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FatTree {
    levels: usize,
}

impl FatTree {
    /// An `L`-level binary fat tree. Panics unless `1 <= L <= MAX_LEVELS`.
    pub fn new(levels: usize) -> FatTree {
        assert!(levels >= 1, "fat tree needs at least 1 level");
        assert!(
            levels <= MAX_LEVELS,
            "fat tree levels must be ≤ {MAX_LEVELS}"
        );
        FatTree { levels }
    }

    /// Number of up/down levels `L`.
    #[inline]
    pub fn levels(self) -> usize {
        self.levels
    }

    /// Leaves (and slots per level), `2^L`.
    #[inline]
    pub fn num_leaves(self) -> usize {
        1 << self.levels
    }

    /// Total nodes, `(L+1) · 2^L`.
    #[inline]
    pub fn num_nodes(self) -> usize {
        (self.levels + 1) << self.levels
    }

    /// Up arcs, `2L · 2^L` (two per node on levels `0..L`); they occupy
    /// the dense indices `0..num_up_arcs()`, down arcs the rest.
    #[inline]
    pub fn num_up_arcs(self) -> usize {
        self.levels << (self.levels + 1)
    }

    /// Total directed arcs, `4L · 2^L`.
    #[inline]
    pub fn num_arcs(self) -> usize {
        self.levels << (self.levels + 2)
    }

    /// Flat node encoding for routing: `level · 2^L + word` (level-major,
    /// like the butterfly) — the leaves are node ids `0..2^L` exactly.
    #[inline]
    pub fn encode_node(self, word: u64, level: usize) -> u64 {
        debug_assert!(word < (1u64 << self.levels) && level <= self.levels);
        ((level as u64) << self.levels) | word
    }

    /// Inverse of [`FatTree::encode_node`]: `(word, level)`.
    #[inline]
    pub fn decode_node(self, node: u64) -> (u64, usize) {
        let slots = 1u64 << self.levels;
        (node & (slots - 1), (node >> self.levels) as usize)
    }

    /// Whether leaf `leaf` lies in the subtree below `(word; level)`:
    /// descent can only rewrite bits below `level`.
    #[inline]
    pub fn subtree_contains(self, word: u64, level: usize, leaf: u64) -> bool {
        (word ^ leaf) >> level == 0
    }

    /// Iterator over all leaf words `0..2^L`.
    pub fn leaves(self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.num_leaves()).map(|v| NodeId(v as u64))
    }

    /// Dense index of the up arc out of `(word; level)`, `level < L`:
    /// straight (`flip = false`) or flipping bit `level` (`flip = true`).
    #[inline]
    pub fn up_arc_index(self, word: u64, level: usize, flip: bool) -> usize {
        debug_assert!(level < self.levels && word < (1u64 << self.levels));
        ((((level as u64) << self.levels) | word) as usize) << 1 | flip as usize
    }

    /// Dense index of the down arc out of `(word; level)`, `level >= 1`,
    /// forcing bit `level - 1` of the head word to `bit`.
    #[inline]
    pub fn down_arc_index(self, word: u64, level: usize, bit: u64) -> usize {
        debug_assert!((1..=self.levels).contains(&level) && bit <= 1);
        debug_assert!(word < (1u64 << self.levels));
        self.num_up_arcs()
            + ((((((level - 1) as u64) << self.levels) | word) as usize) << 1 | bit as usize)
    }

    /// `(tail, head)` node ids of the arc with dense index `arc`.
    pub fn arc_endpoints(self, arc: usize) -> (u64, u64) {
        debug_assert!(arc < self.num_arcs());
        let mask = (1u64 << self.levels) - 1;
        let up = self.num_up_arcs();
        if arc < up {
            let t = (arc >> 1) as u64;
            let (word, level) = (t & mask, (t >> self.levels) as usize);
            let head = word ^ (((arc & 1) as u64) << level);
            (
                self.encode_node(word, level),
                self.encode_node(head, level + 1),
            )
        } else {
            let t = ((arc - up) >> 1) as u64;
            let (word, level) = (t & mask, (t >> self.levels) as usize + 1);
            let bit = (arc & 1) as u64;
            let head = (word & !(1u64 << (level - 1))) | (bit << (level - 1));
            (
                self.encode_node(word, level),
                self.encode_node(head, level - 1),
            )
        }
    }

    /// Greedy (shortest-path) hops from `node` to leaf `dest_leaf`:
    /// `level` once the destination is in the subtree, else climb to the
    /// least-common-ancestor level `h + 1` (with `h` the highest
    /// differing bit at or above `level`) and descend it.
    pub fn distance(self, node: u64, dest_leaf: u64) -> usize {
        debug_assert!(dest_leaf < (1u64 << self.levels));
        let (word, level) = self.decode_node(node);
        let diff = (word ^ dest_leaf) >> level;
        if diff == 0 {
            level
        } else {
            let h = level + (63 - diff.leading_zeros() as usize);
            (h + 1 - level) + (h + 1)
        }
    }

    /// The greedy arc out of `node` toward leaf `dest_leaf`, or `None`
    /// once `node` *is* that leaf: descend forcing bit `level - 1` to the
    /// destination's when the subtree contains it, ascend straight
    /// otherwise.
    pub fn greedy_arc(self, node: u64, dest_leaf: u64) -> Option<usize> {
        debug_assert!(dest_leaf < (1u64 << self.levels));
        let (word, level) = self.decode_node(node);
        if self.subtree_contains(word, level, dest_leaf) {
            if level == 0 {
                return None;
            }
            Some(self.down_arc_index(word, level, (dest_leaf >> (level - 1)) & 1))
        } else {
            Some(self.up_arc_index(word, level, false))
        }
    }

    /// Expected greedy leaf-to-leaf path length under uniform
    /// destinations (including the origin): the highest differing bit is
    /// `h` with probability `2^h / 2^L`, costing `2(h+1)` hops.
    pub fn mean_path_length(self) -> f64 {
        let total: f64 = (0..self.levels)
            .map(|h| ((1u64 << h) as f64) * 2.0 * (h + 1) as f64)
            .sum();
        total / (1u64 << self.levels) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_counts() {
        let f = FatTree::new(3);
        assert_eq!(f.num_leaves(), 8);
        assert_eq!(f.num_nodes(), 32);
        assert_eq!(f.num_up_arcs(), 48);
        assert_eq!(f.num_arcs(), 96);
        assert_eq!(FatTree::new(1).num_arcs(), 8);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_levels_rejected() {
        FatTree::new(0);
    }

    #[test]
    fn node_encoding_round_trips() {
        let f = FatTree::new(3);
        for level in 0..=3usize {
            for word in 0..8u64 {
                assert_eq!(f.decode_node(f.encode_node(word, level)), (word, level));
            }
        }
        // Leaves are the id prefix.
        assert_eq!(f.encode_node(5, 0), 5);
    }

    #[test]
    fn arc_indices_are_dense_and_round_trip() {
        let f = FatTree::new(3);
        let mut seen = vec![false; f.num_arcs()];
        for word in 0..8u64 {
            for level in 0..3usize {
                for flip in [false, true] {
                    let idx = f.up_arc_index(word, level, flip);
                    assert!(!seen[idx], "collision at {idx}");
                    seen[idx] = true;
                    let (tail, head) = f.arc_endpoints(idx);
                    assert_eq!(tail, f.encode_node(word, level));
                    let expect = word ^ ((flip as u64) << level);
                    assert_eq!(head, f.encode_node(expect, level + 1));
                }
            }
            for level in 1..=3usize {
                for bit in 0..2u64 {
                    let idx = f.down_arc_index(word, level, bit);
                    assert!(!seen[idx], "collision at {idx}");
                    seen[idx] = true;
                    let (tail, head) = f.arc_endpoints(idx);
                    assert_eq!(tail, f.encode_node(word, level));
                    let expect = (word & !(1u64 << (level - 1))) | (bit << (level - 1));
                    assert_eq!(head, f.encode_node(expect, level - 1));
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn distance_is_up_over_and_down() {
        let f = FatTree::new(4);
        // Same leaf: 0 hops; adjacent subtrees: up 1, down 1.
        assert_eq!(f.distance(0, 0), 0);
        assert_eq!(f.distance(0, 1), 2);
        // Highest differing bit 3: climb to level 4 and descend.
        assert_eq!(f.distance(0b0000, 0b1000), 8);
        assert_eq!(f.distance(0b0101, 0b1101), 8);
        // From an interior node with the destination in its subtree.
        let n = f.encode_node(0b0100, 2);
        assert_eq!(f.distance(n, 0b0111), 2);
        // From an interior node whose subtree misses the destination.
        assert_eq!(f.distance(n, 0b1111), (4 - 2) + 4);
    }

    #[test]
    fn greedy_walk_reaches_every_leaf_in_distance_hops() {
        let f = FatTree::new(4);
        for src in 0..16u64 {
            for dst in 0..16u64 {
                let mut at = src;
                let mut hops = 0;
                while let Some(arc) = f.greedy_arc(at, dst) {
                    let (tail, head) = f.arc_endpoints(arc);
                    assert_eq!(tail, at);
                    assert_eq!(f.distance(head, dst), f.distance(at, dst) - 1);
                    at = head;
                    hops += 1;
                }
                assert_eq!(at, dst);
                assert_eq!(hops, f.distance(src, dst), "{src}→{dst}");
            }
        }
    }

    #[test]
    fn both_up_arcs_progress_when_subtree_misses() {
        let f = FatTree::new(4);
        for word in 0..16u64 {
            for level in 0..4usize {
                for dst in 0..16u64 {
                    if f.subtree_contains(word, level, dst) {
                        continue;
                    }
                    let node = f.encode_node(word, level);
                    for flip in [false, true] {
                        let (_, head) = f.arc_endpoints(f.up_arc_index(word, level, flip));
                        assert_eq!(
                            f.distance(head, dst),
                            f.distance(node, dst) - 1,
                            "up arc flip={flip} from ({word}; {level}) toward {dst}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mean_path_length_matches_enumeration() {
        for levels in 1..=6usize {
            let f = FatTree::new(levels);
            let n = f.num_leaves() as u64;
            let mean: f64 = (0..n)
                .flat_map(|s| (0..n).map(move |d| (s, d)))
                .map(|(s, d)| f.distance(s, d) as f64)
                .sum::<f64>()
                / (n * n) as f64;
            assert!(
                (f.mean_path_length() - mean).abs() < 1e-12,
                "L={levels}: {} vs {mean}",
                f.mean_path_length()
            );
        }
    }
}
