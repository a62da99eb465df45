//! The topology-generic greedy-routing abstraction.
//!
//! [`RoutingTopology`] is what a network must provide for the generic
//! simulation core (`hyperroute-core::engine`) to route packets over it:
//! a dense arc space and a deterministic greedy next-arc function. Two
//! families implement it — the **dense** closed-form topologies in this
//! crate and the **sparse** generated graphs in `hyperroute-sparse` —
//! and the trait contract is written for both:
//!
//! 1. **Dense arcs.** Arc indices cover `0..num_arcs()` without gaps;
//!    [`RoutingTopology::arc_tail`] / [`RoutingTopology::arc_head`] invert
//!    the indexing.
//! 2. **Greedy descent.** For `node != dest`,
//!    [`RoutingTopology::next_arc`] returns an arc whose tail is `node`
//!    and whose head is **strictly closer** to `dest` under
//!    [`RoutingTopology::distance`] — so greedy routes never cycle.
//! 3. **Termination.** `next_arc(node, node)` is `None`. Away from the
//!    destination, `None` means greedy is **stuck**: a *local minimum*
//!    (neighbours exist, none strictly closer) or a *dead end* (no
//!    out-arcs). The engine classifies those route outcomes and can
//!    recover with the escape fallback.
//!
//! # Dense vs sparse
//!
//! The dense family (hypercube, butterfly, ring, torus, de Bruijn, fat
//! tree) is *enumerated*: a closed-form arc indexing, a `next_arc` that
//! is a bit trick, and a `distance` that counts exact greedy hops —
//! greedy on these never returns `None` short of a reachable
//! destination, so their routes take exactly `distance(node, dest)`
//! hops. The sparse family (`hyperroute-sparse`: Kleinberg small-world,
//! hyperbolic disk, configuration-model scale-free/expander) is
//! *generated*: a seeded builder streams a random graph into a CSR, and
//! `next_arc` scans the CSR row for the neighbour closest to `dest`
//! under an embedding metric. There `distance` is the **quantised
//! metric** — it orders nodes for strict-progress checks but is not a
//! hop count — and `next_arc` exercises the relaxed termination arm of
//! the contract. The property tests in `tests/proptest_routing.rs`
//! (dense) and `crates/sparse/tests/` (sparse) pin each family to its
//! half of the contract.
//!
//! On top of the greedy contract sits the **multipath contract**:
//! [`RoutingTopology::alternate_arcs`] enumerates the ranked second-choice
//! arcs out of a node — the arcs a fault-survivability fallback consults
//! when the greedy arc is dead. Alternates need not make strict progress
//! (the de Bruijn sibling arc and the butterfly's extra-pass wrap regress
//! by a bounded stretch), so the callers budget non-progress hops; the
//! enumeration itself must be deterministic and finite. The default is an
//! empty enumeration (single-path topology: a dead greedy arc is fatal).
//!
//! [`RoutingTopology::num_sources`] names the prefix of node ids that
//! inject packets (all nodes by default; the butterfly's level-0 rows and
//! the fat tree's leaves override it).
//!
//! The packet-level engines keep their packed routing-word fast paths (bit
//! tricks over XOR masks for the hypercube, level words for the
//! butterfly), but those fast paths must agree with the trait — the
//! property tests pin them together. "Add a topology" means implementing
//! this trait and nothing else: the blanket `GraphSpec<T>` in
//! `hyperroute-core::graph_sim` runs any impl on the generic engine (the
//! torus and de Bruijn graphs are the worked examples). "Add a sparse
//! *generator*" is even less: write a seeded `params → SparseTopology`
//! function (draw structure with a `SimRng`, stream arcs into the CSR,
//! pick an embedding) and the trait impl comes for free — the
//! ~100-line walkthrough lives in the `hyperroute-sparse` crate docs.
//!
//! Node encodings are plain `u64`s, chosen per topology:
//!
//! * [`Hypercube`]: the node id `0..2^d`.
//! * [`Butterfly`]: `level · 2^d + row` (level-major); routing
//!   destinations are level-`d` nodes.
//! * [`Ring`]: the node id `0..n`.
//! * [`Torus`]: the node id `0..k^d` (base-`k` digit vector).
//! * [`DeBruijn`]: the `n`-bit shift-register word `0..2^n`.
//! * [`FatTree`]: `level · 2^L + word` (level-major, like the butterfly);
//!   routing destinations are the level-0 leaves `0..2^L`.

use crate::arcs::{ArcKind, ButterflyArc, HypercubeArc};
use crate::butterfly::Butterfly;
use crate::debruijn::DeBruijn;
use crate::fattree::FatTree;
use crate::hypercube::Hypercube;
use crate::node::NodeId;
use crate::ring::{Ring, RingDirection};
use crate::torus::{Torus, TorusDirection};

/// A network with dense arc indexing and deterministic greedy routing.
///
/// See the [module docs](self) for the full contract.
pub trait RoutingTopology {
    /// Number of nodes (the size of the node-id space actually used).
    fn num_nodes(&self) -> usize;

    /// Number of directed arcs; indices are dense in `0..num_arcs()`.
    fn num_arcs(&self) -> usize;

    /// Dense index of the greedy arc out of `node` toward `dest`.
    /// `None` when `node == dest` (delivered) — or, on sparse metric
    /// topologies, when greedy is stuck at a local minimum or dead end
    /// (see the [module docs](self)); dense closed-form topologies never
    /// stall short of a reachable destination.
    fn next_arc(&self, node: u64, dest: u64) -> Option<usize>;

    /// Tail node of arc `arc`.
    fn arc_tail(&self, arc: usize) -> u64;

    /// Head node of arc `arc`.
    fn arc_head(&self, arc: usize) -> u64;

    /// The measure greedy descends: on dense topologies the exact hop
    /// count of the greedy route from `node` to `dest`; on sparse metric
    /// topologies the quantised embedding distance (an ordering for
    /// strict-progress checks, **not** a hop count).
    fn distance(&self, node: u64, dest: u64) -> usize;

    /// Append the **ranked alternate arcs** out of `node` toward
    /// `dest != node` to `out` — the arcs a fault fallback consults, best
    /// first, when the greedy arc is dead. Strict-progress alternates
    /// (hypercube/torus dimension-order siblings, the fat tree's flipped
    /// up-arc) come before regressing ones (the de Bruijn binary sibling,
    /// the butterfly's extra-pass wrap, the ring's long way around); the
    /// greedy arc itself is never listed. The enumeration is deterministic
    /// and must not contain duplicates. Default: no alternates (a dead
    /// greedy arc on a single-path topology is fatal).
    fn alternate_arcs(&self, node: u64, dest: u64, out: &mut Vec<usize>) {
        let _ = (node, dest, out);
    }

    /// Number of packet-injecting sources: the engine drives sources
    /// `0..num_sources()` and uses the source index as the injection node
    /// id. Defaults to every node; topologies whose packets enter at a
    /// distinguished level (butterfly level-0 rows, fat-tree leaves)
    /// override it — their encodings put the injection nodes at ids
    /// `0..num_sources()` exactly.
    fn num_sources(&self) -> usize {
        self.num_nodes()
    }

    /// Dense arc range out of `node`, when arc indices are **grouped by
    /// tail** (CSR layout): arcs `out_arc_range(v)` all have tail `v`,
    /// and the ranges tile `0..num_arcs()`. The engine's fault fallbacks
    /// use it to scan a node's out-arcs directly instead of building
    /// their own counting-sort index. All-or-nothing contract: an
    /// implementation returns `Some` for every node or for none.
    /// Default: `None` (dense closed-form topologies interleave arc
    /// kinds, so their indices are not tail-grouped).
    fn out_arc_range(&self, node: u64) -> Option<std::ops::Range<usize>> {
        let _ = node;
        None
    }
}

/// A borrowed topology routes like the owned one. Every trait method is
/// forwarded, including defaulted ones, so overrides like the butterfly's
/// `num_sources` or a CSR graph's `out_arc_range` survive the indirection.
impl<T: RoutingTopology + ?Sized> RoutingTopology for &T {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }
    fn num_arcs(&self) -> usize {
        (**self).num_arcs()
    }
    fn next_arc(&self, node: u64, dest: u64) -> Option<usize> {
        (**self).next_arc(node, dest)
    }
    fn arc_tail(&self, arc: usize) -> u64 {
        (**self).arc_tail(arc)
    }
    fn arc_head(&self, arc: usize) -> u64 {
        (**self).arc_head(arc)
    }
    fn distance(&self, node: u64, dest: u64) -> usize {
        (**self).distance(node, dest)
    }
    fn alternate_arcs(&self, node: u64, dest: u64, out: &mut Vec<usize>) {
        (**self).alternate_arcs(node, dest, out)
    }
    fn num_sources(&self) -> usize {
        (**self).num_sources()
    }
    fn out_arc_range(&self, node: u64) -> Option<std::ops::Range<usize>> {
        (**self).out_arc_range(node)
    }
}

impl RoutingTopology for Hypercube {
    fn num_nodes(&self) -> usize {
        Hypercube::num_nodes(*self)
    }

    fn num_arcs(&self) -> usize {
        Hypercube::num_arcs(*self)
    }

    /// Canonical greedy order (paper §1.1): cross the lowest differing
    /// dimension first.
    fn next_arc(&self, node: u64, dest: u64) -> Option<usize> {
        let diff = node ^ dest;
        if diff == 0 {
            return None;
        }
        let dim = diff.trailing_zeros() as usize;
        Some(
            HypercubeArc {
                from: NodeId(node),
                dim,
            }
            .index(self.dim()),
        )
    }

    fn arc_tail(&self, arc: usize) -> u64 {
        HypercubeArc::from_index(arc, self.dim()).from.0
    }

    fn arc_head(&self, arc: usize) -> u64 {
        HypercubeArc::from_index(arc, self.dim()).to().0
    }

    fn distance(&self, node: u64, dest: u64) -> usize {
        NodeId(node).hamming(NodeId(dest)) as usize
    }

    /// The other differing dimensions in increasing index order — every
    /// alternate still makes strict shortest-path progress (any differing
    /// dimension may be crossed first).
    fn alternate_arcs(&self, node: u64, dest: u64, out: &mut Vec<usize>) {
        let diff = node ^ dest;
        debug_assert_ne!(diff, 0);
        let greedy = diff.trailing_zeros() as usize;
        for dim in (greedy + 1)..self.dim() {
            if (diff >> dim) & 1 == 1 {
                out.push(
                    HypercubeArc {
                        from: NodeId(node),
                        dim,
                    }
                    .index(self.dim()),
                );
            }
        }
    }
}

impl Butterfly {
    /// Flat node encoding for [`RoutingTopology`]: `level · 2^d + row`.
    #[inline]
    pub fn encode_node(self, row: u64, level: usize) -> u64 {
        debug_assert!(row < (1u64 << self.dim()) && level <= self.dim());
        ((level as u64) << self.dim()) | row
    }

    /// Inverse of [`Butterfly::encode_node`]: `(row, level)`.
    #[inline]
    pub fn decode_node(self, node: u64) -> (u64, usize) {
        let rows = 1u64 << self.dim();
        (node & (rows - 1), (node >> self.dim()) as usize)
    }
}

impl RoutingTopology for Butterfly {
    fn num_nodes(&self) -> usize {
        Butterfly::num_nodes(*self)
    }

    fn num_arcs(&self) -> usize {
        Butterfly::num_arcs(*self)
    }

    /// On the canonical path (no bit below `level` misrouted) this is the
    /// unique greedy arc: straight when bit `level` of the row already
    /// matches the destination row, vertical otherwise. A **misrouted**
    /// packet — one a fault fallback deflected, so some bit below `level`
    /// is wrong — finishes its pass and then takes the extra-pass **wrap**:
    /// at level `d` with the wrong row, the greedy arc is the first arc of
    /// a fresh pass out of `[row; 0]` (its tail is the packet's row
    /// re-entering level 0, not the level-`d` node — back-routing through
    /// the spare stage permutation, exactly how a repeated-stage butterfly
    /// retries a blocked setting). Fault-free runs never leave the
    /// canonical path, so they never see a wrap. `dest` must be a
    /// level-`d` node.
    fn next_arc(&self, node: u64, dest: u64) -> Option<usize> {
        let (row, level) = self.decode_node(node);
        let (dest_row, dest_level) = self.decode_node(dest);
        debug_assert_eq!(dest_level, self.dim(), "butterfly dests sit at level d");
        if node == dest {
            return None;
        }
        let pass_level = if level == self.dim() { 0 } else { level };
        let kind = if (row >> pass_level) & 1 == (dest_row >> pass_level) & 1 {
            ArcKind::Straight
        } else {
            ArcKind::Vertical
        };
        Some(
            ButterflyArc {
                row: NodeId(row),
                level: pass_level,
                kind,
            }
            .index(self.dim()),
        )
    }

    fn arc_tail(&self, arc: usize) -> u64 {
        let a = ButterflyArc::from_index(arc, self.dim());
        self.encode_node(a.row.0, a.level)
    }

    fn arc_head(&self, arc: usize) -> u64 {
        let a = ButterflyArc::from_index(arc, self.dim());
        self.encode_node(a.to_row().0, a.level + 1)
    }

    /// Levels remaining, plus a full extra pass (`d` more hops) when the
    /// packet was misrouted: bit `j < level` of the row can only be fixed
    /// by wrapping back to level 0 and crossing level `j` again. On the
    /// canonical path (no wrong bit below `level`) this is the paper's
    /// `d - j` (§4.1); greedy progress stays strictly `-1` per hop either
    /// way, so deflected routes still terminate.
    fn distance(&self, node: u64, dest: u64) -> usize {
        let (row, level) = self.decode_node(node);
        let (dest_row, dest_level) = self.decode_node(dest);
        debug_assert_eq!(dest_level, self.dim(), "butterfly dests sit at level d");
        let fixed = (1u64 << level) - 1;
        let extra_pass = if (row ^ dest_row) & fixed != 0 {
            self.dim()
        } else {
            0
        };
        (dest_level - level) + extra_pass
    }

    /// The sibling arc of the same pass step: the packet crosses the
    /// current level with the *wrong* bit (stretch: one extra pass). At
    /// level `d` the greedy arc is already the wrap out of `[row; 0]`, so
    /// the alternate is the wrap's sibling.
    fn alternate_arcs(&self, node: u64, dest: u64, out: &mut Vec<usize>) {
        let (row, level) = self.decode_node(node);
        let (dest_row, _) = self.decode_node(dest);
        let pass_level = if level == self.dim() { 0 } else { level };
        let kind = if (row >> pass_level) & 1 == (dest_row >> pass_level) & 1 {
            ArcKind::Vertical
        } else {
            ArcKind::Straight
        };
        out.push(
            ButterflyArc {
                row: NodeId(row),
                level: pass_level,
                kind,
            }
            .index(self.dim()),
        );
    }

    /// Packets inject at the level-0 rows, which the level-major encoding
    /// places at node ids `0..2^d` exactly.
    fn num_sources(&self) -> usize {
        self.num_rows()
    }
}

impl RoutingTopology for Ring {
    fn num_nodes(&self) -> usize {
        Ring::num_nodes(*self)
    }

    fn num_arcs(&self) -> usize {
        Ring::num_arcs(*self)
    }

    /// Shorter way around (ties clockwise); always clockwise on
    /// unidirectional rings.
    fn next_arc(&self, node: u64, dest: u64) -> Option<usize> {
        if node == dest {
            return None;
        }
        Some(self.arc_index(node, self.greedy_direction(node, dest)))
    }

    fn arc_tail(&self, arc: usize) -> u64 {
        self.arc_from_index(arc).0
    }

    fn arc_head(&self, arc: usize) -> u64 {
        let (node, dir) = self.arc_from_index(arc);
        self.step(node, dir)
    }

    fn distance(&self, node: u64, dest: u64) -> usize {
        Ring::distance(*self, node, dest)
    }

    /// Bidirectional rings can go the long way around (regressing, but it
    /// reaches every destination); unidirectional rings have no alternate.
    fn alternate_arcs(&self, node: u64, dest: u64, out: &mut Vec<usize>) {
        if !self.bidirectional() {
            return;
        }
        let other = match self.greedy_direction(node, dest) {
            RingDirection::Clockwise => RingDirection::CounterClockwise,
            RingDirection::CounterClockwise => RingDirection::Clockwise,
        };
        out.push(self.arc_index(node, other));
    }
}

impl RoutingTopology for Torus {
    fn num_nodes(&self) -> usize {
        Torus::num_nodes(*self)
    }

    fn num_arcs(&self) -> usize {
        Torus::num_arcs(*self)
    }

    /// Lowest differing dimension first (the hypercube's canonical
    /// order), walked the shorter way around that digit's ring (ties
    /// toward `+1`).
    fn next_arc(&self, node: u64, dest: u64) -> Option<usize> {
        if node == dest {
            return None;
        }
        let (dim, dir) = self.greedy_step(node, dest);
        Some(self.arc_index(node, dim, dir))
    }

    fn arc_tail(&self, arc: usize) -> u64 {
        self.arc_from_index(arc).0
    }

    fn arc_head(&self, arc: usize) -> u64 {
        let (node, dim, dir) = self.arc_from_index(arc);
        self.step(node, dim, dir)
    }

    fn distance(&self, node: u64, dest: u64) -> usize {
        Torus::distance(*self, node, dest)
    }

    /// The other differing dimensions in increasing index order, each
    /// walked its digit ring's shorter way (ties toward `+1`, like the
    /// greedy step) — all strict-progress alternates.
    fn alternate_arcs(&self, node: u64, dest: u64, out: &mut Vec<usize>) {
        debug_assert_ne!(node, dest);
        let k = self.radix() as u64;
        let (greedy_dim, _) = self.greedy_step(node, dest);
        let (mut s, mut t) = (node, dest);
        for i in 0..self.dim() {
            let (sd, td) = (s % k, t % k);
            if sd != td && i != greedy_dim {
                let cw = (td + k - sd) % k;
                let dir = if 2 * cw > k {
                    TorusDirection::Down
                } else {
                    TorusDirection::Up
                };
                out.push(self.arc_index(node, i, dir));
            }
            s /= k;
            t /= k;
        }
    }
}

impl RoutingTopology for DeBruijn {
    fn num_nodes(&self) -> usize {
        DeBruijn::num_nodes(*self)
    }

    fn num_arcs(&self) -> usize {
        DeBruijn::num_arcs(*self)
    }

    /// Shift in the destination's highest unmatched bit (the unique
    /// shortest-path step; never a self-loop).
    fn next_arc(&self, node: u64, dest: u64) -> Option<usize> {
        if node == dest {
            return None;
        }
        Some(self.arc_index(node, self.greedy_bit(node, dest)))
    }

    fn arc_tail(&self, arc: usize) -> u64 {
        self.arc_from_index(arc).0
    }

    fn arc_head(&self, arc: usize) -> u64 {
        let (node, bit) = self.arc_from_index(arc);
        self.shift(node, bit)
    }

    fn distance(&self, node: u64, dest: u64) -> usize {
        DeBruijn::distance(*self, node, dest)
    }

    /// The **binary sibling arc**: shift in the complement of the greedy
    /// bit. The wrong bit can destroy the whole suffix overlap with
    /// `dest`, so the stretch is bounded by one full re-route (at most
    /// `n` extra hops — the diameter), never a cycle. Skipped at the two
    /// self-loop corners (node 0 shifting 0, all-ones shifting 1) where
    /// the sibling arc does not exist.
    fn alternate_arcs(&self, node: u64, dest: u64, out: &mut Vec<usize>) {
        debug_assert_ne!(node, dest);
        let other = 1 - self.greedy_bit(node, dest);
        if self.shift(node, other) != node {
            out.push(self.arc_index(node, other));
        }
    }
}

impl RoutingTopology for FatTree {
    fn num_nodes(&self) -> usize {
        FatTree::num_nodes(*self)
    }

    fn num_arcs(&self) -> usize {
        FatTree::num_arcs(*self)
    }

    /// Descend forcing one destination bit per hop once the subtree
    /// contains the destination leaf; climb straight otherwise. `dest`
    /// must be a leaf (`< 2^L`).
    fn next_arc(&self, node: u64, dest: u64) -> Option<usize> {
        self.greedy_arc(node, dest)
    }

    fn arc_tail(&self, arc: usize) -> u64 {
        self.arc_endpoints(arc).0
    }

    fn arc_head(&self, arc: usize) -> u64 {
        self.arc_endpoints(arc).1
    }

    fn distance(&self, node: u64, dest: u64) -> usize {
        FatTree::distance(*self, node, dest)
    }

    /// Climbing: the flipped up arc — **also strict progress** (flipping
    /// bit `ℓ` never matters above level `ℓ`), the fat tree's signature
    /// two-way ascent diversity. Descending: the wrong-subtree down arc
    /// (stretch 2), then the two up arcs (stretch 2) where a level above
    /// exists.
    fn alternate_arcs(&self, node: u64, dest: u64, out: &mut Vec<usize>) {
        let (word, level) = self.decode_node(node);
        if !self.subtree_contains(word, level, dest) {
            out.push(self.up_arc_index(word, level, true));
        } else if level > 0 {
            let bit = (dest >> (level - 1)) & 1;
            out.push(self.down_arc_index(word, level, 1 - bit));
            if level < self.levels() {
                out.push(self.up_arc_index(word, level, false));
                out.push(self.up_arc_index(word, level, true));
            }
        }
    }

    /// Packets inject at the leaves, node ids `0..2^L` exactly.
    fn num_sources(&self) -> usize {
        self.num_leaves()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walk the greedy route and check termination + strict progress.
    fn assert_greedy_route<T: RoutingTopology>(t: &T, src: u64, dest: u64) {
        let mut at = src;
        let mut hops = 0;
        while let Some(arc) = t.next_arc(at, dest) {
            assert!(arc < t.num_arcs());
            assert_eq!(t.arc_tail(arc), at);
            let next = t.arc_head(arc);
            assert_eq!(
                t.distance(next, dest),
                t.distance(at, dest) - 1,
                "hop {at}→{next} toward {dest} is not strict progress"
            );
            at = next;
            hops += 1;
            assert!(hops <= t.num_nodes(), "greedy route cycles");
        }
        assert_eq!(at, dest);
        assert_eq!(hops, t.distance(src, dest));
    }

    #[test]
    fn hypercube_greedy_routes() {
        let c = Hypercube::new(5);
        for src in [0u64, 7, 19, 31] {
            for dest in [0u64, 1, 21, 30] {
                assert_greedy_route(&c, src, dest);
            }
        }
        assert_eq!(RoutingTopology::num_arcs(&c), 160);
    }

    #[test]
    fn hypercube_greedy_matches_canonical_path() {
        let c = Hypercube::new(6);
        let (src, dest) = (NodeId(0b100101), NodeId(0b011001));
        let canonical: Vec<usize> = c.canonical_path(src, dest).map(|a| a.index(6)).collect();
        let mut walked = Vec::new();
        let mut at = src.0;
        while let Some(arc) = c.next_arc(at, dest.0) {
            walked.push(arc);
            at = RoutingTopology::arc_head(&c, arc);
        }
        assert_eq!(walked, canonical);
    }

    #[test]
    fn butterfly_greedy_routes() {
        let b = Butterfly::new(4);
        for src_row in [0u64, 5, 12, 15] {
            for dest_row in [0u64, 3, 9, 15] {
                let src = b.encode_node(src_row, 0);
                let dest = b.encode_node(dest_row, 4);
                assert_eq!(b.distance(src, dest), 4);
                assert_greedy_route(&b, src, dest);
            }
        }
    }

    #[test]
    fn torus_greedy_routes() {
        let t = Torus::new(4, 2);
        for src in 0..16u64 {
            for dest in 0..16u64 {
                assert_greedy_route(&t, src, dest);
            }
        }
        assert_eq!(RoutingTopology::num_arcs(&t), 64);
    }

    #[test]
    fn debruijn_greedy_routes() {
        let g = DeBruijn::new(4);
        for src in 0..16u64 {
            for dest in 0..16u64 {
                assert_greedy_route(&g, src, dest);
            }
        }
        assert_eq!(RoutingTopology::num_arcs(&g), 30);
    }

    #[test]
    fn ring_greedy_routes_both_variants() {
        for bidirectional in [false, true] {
            let r = Ring::new(11, bidirectional);
            for src in 0..11u64 {
                for dest in 0..11u64 {
                    assert_greedy_route(&r, src, dest);
                }
            }
        }
    }

    #[test]
    fn node_encoding_round_trips() {
        let b = Butterfly::new(3);
        for level in 0..=3usize {
            for row in 0..8u64 {
                assert_eq!(b.decode_node(b.encode_node(row, level)), (row, level));
            }
        }
    }

    #[test]
    fn fattree_greedy_routes() {
        let f = FatTree::new(4);
        for src in 0..16u64 {
            for dest in 0..16u64 {
                assert_greedy_route(&f, src, dest);
            }
        }
        assert_eq!(RoutingTopology::num_arcs(&f), 256);
    }

    #[test]
    fn source_prefixes_are_the_injection_nodes() {
        // Default: every node injects.
        assert_eq!(Hypercube::new(4).num_sources(), 16);
        assert_eq!(Torus::new(4, 2).num_sources(), 16);
        // Levelled topologies inject at their distinguished level, which
        // the level-major encodings place at the node-id prefix.
        let b = Butterfly::new(3);
        assert_eq!(b.num_sources(), 8);
        for row in 0..8u64 {
            assert_eq!(b.encode_node(row, 0), row);
        }
        let f = FatTree::new(3);
        assert_eq!(f.num_sources(), 8);
        for word in 0..8u64 {
            assert_eq!(f.encode_node(word, 0), word);
        }
    }

    /// Deflecting onto any alternate still leaves a terminating greedy
    /// route — the contract Retry/Multipath fallbacks rely on: alternates
    /// are valid non-greedy arcs out of the node (the butterfly wrap's
    /// tail is the level-0 re-entry instead) and each deflection costs at
    /// most `max_extra` hops over the greedy route.
    fn assert_alternates_recoverable<T: RoutingTopology>(
        t: &T,
        src: u64,
        dest: u64,
        wrap: bool,
        max_extra: usize,
    ) {
        let mut alts = Vec::new();
        let mut at = src;
        while let Some(greedy) = t.next_arc(at, dest) {
            alts.clear();
            t.alternate_arcs(at, dest, &mut alts);
            let mut seen = alts.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), alts.len(), "duplicate alternates at {at}");
            for &alt in &alts {
                assert!(alt < t.num_arcs());
                assert_ne!(alt, greedy, "greedy arc listed as alternate at {at}");
                if !wrap {
                    assert_eq!(t.arc_tail(alt), at, "alternate not out of {at}");
                }
                // Bounded stretch: the deflected route still terminates,
                // within `max_extra` hops of the greedy one.
                let deflected = t.arc_head(alt);
                // (One hop onto the alternate + remaining distance, vs the
                // greedy distance plus the allowed stretch.)
                assert!(
                    t.distance(deflected, dest) < t.distance(at, dest) + max_extra,
                    "deflection at {at} toward {dest} stretches past {max_extra}"
                );
                let mut walk = deflected;
                let mut hops = 0;
                while let Some(arc) = t.next_arc(walk, dest) {
                    walk = t.arc_head(arc);
                    hops += 1;
                    assert!(hops <= 4 * t.num_nodes(), "deflected route cycles");
                }
                assert_eq!(walk, dest, "deflection at {at} strands the packet");
            }
            at = t.arc_head(greedy);
        }
    }

    #[test]
    fn alternates_recover_on_every_topology() {
        // Stretch budgets: strict progress (0 extra) on the hypercube and
        // torus, a wasted round trip (2) on the fat tree and ring, a full
        // re-route on the diameter-bounded shift/pass graphs.
        let c = Hypercube::new(4);
        let t = Torus::new(4, 2);
        let g = DeBruijn::new(4);
        let f = FatTree::new(4);
        let r = Ring::new(9, true);
        for src in 0..16u64 {
            for dest in [0u64, 5, 10, 15] {
                assert_alternates_recoverable(&c, src, dest, false, 0);
                assert_alternates_recoverable(&t, src, dest, false, 0);
                assert_alternates_recoverable(&g, src, dest, false, g.dim());
                assert_alternates_recoverable(&f, src, dest, false, 2);
            }
        }
        for src in 0..9u64 {
            assert_alternates_recoverable(&r, src, 4, false, 2);
        }
        let b = Butterfly::new(3);
        for src_row in 0..8u64 {
            for dest_row in 0..8u64 {
                assert_alternates_recoverable(
                    &b,
                    b.encode_node(src_row, 0),
                    b.encode_node(dest_row, 3),
                    true,
                    b.dim(),
                );
            }
        }
    }

    #[test]
    fn hypercube_and_torus_alternates_make_strict_progress() {
        let c = Hypercube::new(5);
        let t = Torus::new(5, 2);
        let mut alts = Vec::new();
        for src in 0..25u64 {
            for dest in 0..25u64 {
                for (topo, ok) in [
                    (&c as &dyn RoutingTopology, src < 32 && dest < 32),
                    (&t, true),
                ] {
                    if src == dest || !ok {
                        continue;
                    }
                    alts.clear();
                    topo.alternate_arcs(src, dest, &mut alts);
                    for &alt in &alts {
                        assert_eq!(
                            topo.distance(topo.arc_head(alt), dest),
                            topo.distance(src, dest) - 1,
                            "alternate {alt} out of {src} toward {dest} regresses"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn butterfly_wrap_restarts_the_pass_and_terminates() {
        // Misroute a packet on its first hop (take the sibling arc), then
        // follow greedy: it finishes the ruined pass, wraps at level d,
        // and delivers after exactly one extra pass — 2d hops total.
        let b = Butterfly::new(3);
        let d = 3;
        for src_row in 0..8u64 {
            for dest_row in 0..8u64 {
                let src = b.encode_node(src_row, 0);
                let dest = b.encode_node(dest_row, d);
                let mut alts = Vec::new();
                b.alternate_arcs(src, dest, &mut alts);
                assert_eq!(alts.len(), 1);
                let mut at = b.arc_head(alts[0]);
                // The sibling arc ruined bit 0 of the row.
                assert_eq!(b.distance(at, dest), 2 * d - 1);
                let mut hops = 1;
                while let Some(arc) = b.next_arc(at, dest) {
                    let next = b.arc_head(arc);
                    assert_eq!(b.distance(next, dest), b.distance(at, dest) - 1);
                    if b.decode_node(at).1 == d {
                        // The wrap: re-enter the pass at the packet's row.
                        assert_eq!(b.arc_tail(arc), b.encode_node(b.decode_node(at).0, 0));
                    } else {
                        assert_eq!(b.arc_tail(arc), at);
                    }
                    at = next;
                    hops += 1;
                }
                assert_eq!(at, dest);
                assert_eq!(hops, 2 * d, "{src_row}→{dest_row}");
            }
        }
    }
}
