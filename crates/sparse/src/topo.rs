//! [`SparseTopology`]: metric greedy routing over a generated CSR graph.
//!
//! This is the sparse half of the dense-vs-sparse split (see the
//! `hyperroute-topology` crate docs): a [`SparseGraph`] adjacency plus an
//! [`Embedding`] metric implement [`RoutingTopology`] with **no
//! closed-form next arc** — the greedy step picks, from the node's CSR
//! row, the neighbour strictly closest to the destination. Rows of up to
//! 64 arcs are scanned whole. On a disk embedding, longer rows — the
//! power-law hubs greedy routes through — are served by an exact banded
//! angular index that evaluates only the neighbours angularly close
//! enough to the destination to matter, and returns the arc the scan
//! would. Because metric
//! greedy can stall, `next_arc` here exercises the trait's relaxed
//! contract: it returns `None` not only at the destination but also at a
//! **local minimum** (no neighbour strictly closer) or a **dead end**
//! (no out-arcs at all); the engine's `GraphSpec` maps that to the
//! `LOCAL_MINIMUM`/`DEAD_END` route outcomes and, when configured, the
//! GOAFR-style escape fallback.

use crate::csr::SparseGraph;
use crate::embed::Embedding;
use crate::hub::HubIndex;
use hyperroute_topology::RoutingTopology;

/// A generated sparse graph routed by embedding-metric greedy.
#[derive(Clone, Debug)]
pub struct SparseTopology {
    graph: SparseGraph,
    embed: Embedding,
    /// Angular index of the high-degree rows (disk embeddings only).
    hubs: Option<HubIndex>,
}

impl SparseTopology {
    /// Assemble a routed topology from a generator's parts. A disk
    /// embedding also gets an index of its high-degree rows, so the
    /// greedy step at a hub evaluates only the neighbours that can beat
    /// it.
    pub fn new(graph: SparseGraph, embed: Embedding) -> SparseTopology {
        let hubs = match &embed {
            Embedding::Disk { r, theta, .. } => HubIndex::build(&graph, r, theta),
            _ => None,
        };
        SparseTopology { graph, embed, hubs }
    }

    /// The underlying CSR adjacency.
    pub fn graph(&self) -> &SparseGraph {
        &self.graph
    }

    /// The embedding metric.
    pub fn embedding(&self) -> &Embedding {
        &self.embed
    }

    /// The embedding distance between two nodes (unquantised).
    pub fn metric(&self, u: u64, v: u64) -> f64 {
        self.embed.metric(u, v)
    }

    /// Walk the greedy route from `src` to `dest` without an engine:
    /// `Ok(hops)` on delivery, `Err(stall_node)` at a local minimum or
    /// dead end. Experiment harnesses use this for success-rate and
    /// stretch measurements decoupled from queueing.
    pub fn greedy_walk(&self, src: u64, dest: u64) -> Result<usize, u64> {
        let mut at = src;
        let mut hops = 0usize;
        while at != dest {
            match self.next_arc(at, dest) {
                Some(arc) => {
                    at = self.graph.arc_head(arc) as u64;
                    hops += 1;
                }
                None => return Err(at),
            }
        }
        Ok(hops)
    }

    /// The greedy step by a scan of `node`'s whole row: the first arc to
    /// `dest` if there is one, else the least-key neighbour if its key is
    /// strictly below `node`'s. Serves every unindexed row, and is the
    /// reference the hub index is tested against.
    fn scan_row(&self, node: u64, dest: u64) -> Option<usize> {
        let range = self.graph.out_range(node as usize);
        let key = self.embed.key_to(dest);
        let mut best: Option<(f64, usize)> = None;
        for arc in range {
            let head = self.graph.arc_head(arc) as u64;
            if head == dest {
                return Some(arc);
            }
            let m = key.key(head);
            if best.is_none_or(|(bm, _)| m < bm) {
                best = Some((m, arc));
            }
        }
        let (m, arc) = best?;
        (m < key.key(node)).then_some(arc)
    }

    /// Breadth-first shortest-path hop count from `src` to `dest`
    /// (`None` if unreachable). O(n + m) with a scratch frontier —
    /// experiment-harness use only (stretch baselines).
    pub fn bfs_distance(&self, src: u64, dest: u64) -> Option<usize> {
        if src == dest {
            return Some(0);
        }
        let n = self.graph.num_nodes();
        let mut dist = vec![u32::MAX; n];
        dist[src as usize] = 0;
        let mut frontier = vec![src as u32];
        let mut next = Vec::new();
        let mut depth = 0u32;
        while !frontier.is_empty() {
            depth += 1;
            for &u in &frontier {
                for &v in self.graph.neighbors(u as usize) {
                    if dist[v as usize] == u32::MAX {
                        if v as u64 == dest {
                            return Some(depth as usize);
                        }
                        dist[v as usize] = depth;
                        next.push(v);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        None
    }
}

impl RoutingTopology for SparseTopology {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn num_arcs(&self) -> usize {
        self.graph.num_arcs()
    }

    /// Metric greedy: the arc to the neighbour with the smallest
    /// embedding distance to `dest`, provided it is **strictly** smaller
    /// than the current node's (ties between neighbours break to the
    /// lowest arc index). `None` at the destination — and, unlike the
    /// dense topologies, at a local minimum or dead end. Candidates are
    /// compared by [`Embedding::greedy_key`] — order-identical to the
    /// metric but without its transcendental tail. A row of up to 64
    /// arcs is scanned; a longer row of a disk embedding (a power-law
    /// hub) is served by the hub index, which evaluates only the
    /// neighbours angularly close enough to the destination to beat the
    /// hub and returns the arc the full scan would.
    fn next_arc(&self, node: u64, dest: u64) -> Option<usize> {
        if node == dest {
            return None;
        }
        if let Some(hubs) = &self.hubs {
            if let Some(slot) = hubs.slot(&self.graph, node) {
                return hubs.next_arc(slot, &self.graph, &self.embed, node, dest);
            }
        }
        self.scan_row(node, dest)
    }

    fn arc_tail(&self, arc: usize) -> u64 {
        self.graph.arc_tail(arc) as u64
    }

    fn arc_head(&self, arc: usize) -> u64 {
        self.graph.arc_head(arc) as u64
    }

    /// The quantised embedding distance — **not** a hop count: it orders
    /// nodes for strict-progress checks (detour/escape) and quantises
    /// deliberately coarsely on continuous metrics.
    fn distance(&self, node: u64, dest: u64) -> usize {
        self.embed.quantise(self.embed.metric(node, dest))
    }

    /// Every other strictly-improving neighbour, ranked by (quantised
    /// distance, arc index) — the multipath fallback's candidate list.
    fn alternate_arcs(&self, node: u64, dest: u64, out: &mut Vec<usize>) {
        let Some(greedy) = self.next_arc(node, dest) else {
            return;
        };
        let here = self.distance(node, dest);
        let start = out.len();
        for arc in self.graph.out_range(node as usize) {
            if arc == greedy {
                continue;
            }
            let d = self.distance(self.graph.arc_head(arc) as u64, dest);
            if d < here {
                out.push(arc);
            }
        }
        let ranked = &mut out[start..];
        ranked.sort_by_key(|&a| (self.distance(self.graph.arc_head(a) as u64, dest), a));
    }

    /// CSR rows group arcs by tail, so the engine's fault machinery can
    /// scan out-arcs directly instead of building its own index.
    fn out_arc_range(&self, node: u64) -> Option<std::ops::Range<usize>> {
        Some(self.graph.out_range(node as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;
    use crate::hyperbolic::hyperbolic;
    use hyperroute_desim::SimRng;

    /// `greedy_walk` driven by the full row scan on every row.
    fn scan_walk(t: &SparseTopology, src: u64, dest: u64) -> Result<usize, u64> {
        let (mut at, mut hops) = (src, 0);
        while at != dest {
            let arc = t.scan_row(at, dest).ok_or(at)?;
            at = t.graph.arc_head(arc) as u64;
            hops += 1;
        }
        Ok(hops)
    }

    /// The rows the hub index serves.
    fn hub_rows(t: &SparseTopology) -> Vec<u64> {
        let hubs = t.hubs.as_ref().expect("disk graphs with hubs are indexed");
        (0..t.num_nodes() as u64)
            .filter(|&v| hubs.slot(&t.graph, v).is_some())
            .collect()
    }

    /// Indexed `next_arc` equals the row scan on every hub row toward
    /// `dests` random destinations, and `next_arc` and `greedy_walk`
    /// equal their scan versions on `pairs` random pairs. `case` names
    /// the failing case so it can be replayed.
    fn assert_index_matches_scan(
        t: &SparseTopology,
        case: &str,
        seed: u64,
        dests: usize,
        pairs: usize,
    ) {
        let n = t.num_nodes();
        let mut rng = SimRng::new(seed);
        let hubs = hub_rows(t);
        assert!(!hubs.is_empty(), "{case}: no hub rows");
        for &hub in &hubs {
            for _ in 0..dests {
                let dest = rng.below(n) as u64;
                assert_eq!(
                    t.next_arc(hub, dest),
                    t.scan_row(hub, dest),
                    "{case}: hub {hub} toward {dest}"
                );
            }
        }
        for _ in 0..pairs {
            let (src, dest) = (rng.below(n) as u64, rng.below(n) as u64);
            assert_eq!(
                t.next_arc(src, dest),
                t.scan_row(src, dest),
                "{case}: step {src} toward {dest}"
            );
            assert_eq!(
                t.greedy_walk(src, dest),
                scan_walk(t, src, dest),
                "{case}: walk {src} to {dest}"
            );
        }
    }

    #[test]
    fn hub_index_matches_the_row_scan_on_hyperbolic_graphs() {
        // (nodes, alpha, radius offset) spanning sparse to dense disks
        // and heavy to light degree tails; 25_000 pairs each.
        let configs = [
            (2048u32, 0.7, -1.5),
            (2048, 0.55, 0.0),
            (1500, 0.9, -2.0),
            (3000, 0.65, -0.5),
        ];
        for (i, &(nodes, alpha, offset)) in configs.iter().enumerate() {
            let seed = 0x4B1D_0000 + i as u64;
            let t = hyperbolic(nodes, alpha, offset, seed);
            let case = format!("case seed {seed:#x} (n {nodes}, alpha {alpha}, offset {offset})");
            assert_index_matches_scan(&t, &case, seed, 50, 25_000);
        }
    }

    #[test]
    fn hub_index_matches_the_row_scan_on_clamped_keys_and_the_origin() {
        // Two star hubs over random placements plus adversarial ones:
        // the origin and a radius of 1e-30 (band 0, sinh r ≈ 0), angles
        // at 0 and at f32 2π (just past the period), and clusters that
        // share one placement exactly, so their keys toward any member
        // tie and toward each other clamp at 1.
        let seed = 0xC1A4_9001;
        let mut rng = SimRng::new(seed);
        let n = 400usize;
        let mut r: Vec<f32> = (0..n).map(|_| (rng.uniform01() * 12.0) as f32).collect();
        let mut theta: Vec<f32> = (0..n)
            .map(|_| (rng.uniform01() * std::f64::consts::TAU) as f32)
            .collect();
        r[2] = 0.0;
        r[3] = 1e-30;
        theta[4] = 0.0;
        theta[5] = std::f32::consts::TAU;
        theta[6] = 1e-7;
        for cluster in [[10usize, 11, 12, 13], [20, 21, 22, 23]] {
            for &v in &cluster[1..] {
                r[v] = r[cluster[0]];
                theta[v] = theta[cluster[0]];
            }
        }
        // Node 1 sits on node 30's placement: from hub 1 toward 30 the
        // hub's own key clamps at 1 and no neighbour can beat it.
        r[1] = r[30];
        theta[1] = theta[30];
        // Hubs 0 and 1 reach every node except the odd members of the
        // clusters and of the origin pair, which stay off-row so that the
        // early return does not hide their tied, clamped twins.
        let off_row = |v: usize| [11usize, 13, 21, 23, 3].contains(&v);
        let mut b = CsrBuilder::new(n, 2);
        let mut scratch = Vec::new();
        for v in 0..n as u32 {
            if v < 2 {
                scratch.extend((0..n as u32).filter(|&w| !off_row(w as usize)));
            } else {
                scratch.extend([0, 1]);
            }
            b.push_node(v, &mut scratch);
        }
        let t = SparseTopology::new(b.finish(), Embedding::disk(r, theta));
        assert_eq!(hub_rows(&t), vec![0, 1]);
        for hub in [0u64, 1] {
            for dest in 0..n as u64 {
                assert_eq!(
                    t.next_arc(hub, dest),
                    t.scan_row(hub, dest),
                    "case seed {seed:#x}: hub {hub} toward {dest}"
                );
            }
        }
        for src in 0..n as u64 {
            for dest in 0..n as u64 {
                assert_eq!(
                    t.greedy_walk(src, dest),
                    scan_walk(&t, src, dest),
                    "case seed {seed:#x}: walk {src} to {dest}"
                );
            }
        }
        // The tie really is exercised: toward 11, hub 0's best neighbours
        // are 10 and 12, at one placement, and the lower id wins.
        let arc = t
            .next_arc(0, 11)
            .expect("a neighbour shares 11's placement");
        assert_eq!(t.arc_head(arc), 10);
    }

    #[test]
    fn hub_index_fits_in_the_csr_footprint() {
        let t = hyperbolic(4096, 0.7, -1.5, 7);
        let g = t.graph();
        let csr = 4 * (g.num_nodes() + 1 + g.num_arcs());
        assert_eq!(hub_rows(&t).len(), 101);
        let index = t.hubs.as_ref().map_or(0, HubIndex::bytes);
        assert!(index <= csr, "index {index} B over the CSR's {csr} B");
        // Lattice and ring embeddings carry no index.
        assert!(cycle_with_chord().hubs.is_none());
    }

    /// A 6-cycle with one chord (1–4): ring-offset greedy from 0 to 3
    /// routes 0→1→... and the chord creates alternates.
    fn cycle_with_chord() -> SparseTopology {
        let mut b = CsrBuilder::new(6, 3);
        let mut scratch = Vec::new();
        for v in 0..6u32 {
            scratch.extend([(v + 1) % 6, (v + 5) % 6]);
            if v == 1 {
                scratch.push(4);
            }
            if v == 4 {
                scratch.push(1);
            }
            b.push_node(v, &mut scratch);
        }
        SparseTopology::new(b.finish(), Embedding::RingOffset { n: 6 })
    }

    #[test]
    fn greedy_descends_the_metric() {
        let t = cycle_with_chord();
        assert_eq!(t.greedy_walk(0, 3), Ok(3));
        assert_eq!(t.greedy_walk(3, 3), Ok(0));
        // From 1, destination 4: the chord is distance 0 — direct hit.
        let arc = t.next_arc(1, 4).unwrap();
        assert_eq!(t.arc_head(arc), 4);
        // Strict progress on every step.
        let mut at = 0u64;
        while let Some(arc) = t.next_arc(at, 3) {
            let next = t.arc_head(arc);
            assert!(t.distance(next, 3) < t.distance(at, 3));
            at = next;
        }
        assert_eq!(at, 3);
    }

    #[test]
    fn local_minimum_and_dead_end_return_none() {
        // Path graph 0–1–2 plus isolated node 3, ring metric over n=4:
        // from 2 toward 3 the only neighbour (1) is farther → local
        // minimum; from 3 there are no arcs at all → dead end.
        let mut b = CsrBuilder::new(4, 2);
        let mut scratch = Vec::new();
        scratch.push(1);
        b.push_node(0, &mut scratch);
        scratch.extend([0, 2]);
        b.push_node(1, &mut scratch);
        scratch.push(1);
        b.push_node(2, &mut scratch);
        b.push_node(3, &mut scratch);
        let t = SparseTopology::new(b.finish(), Embedding::RingOffset { n: 4 });
        assert_eq!(t.next_arc(2, 3), None, "local minimum");
        assert_eq!(t.greedy_walk(2, 3), Err(2));
        assert_eq!(t.next_arc(3, 0), None, "dead end");
        assert_eq!(t.out_arc_range(3), Some(4..4));
        // Delivery still returns None.
        assert_eq!(t.next_arc(1, 1), None);
    }

    #[test]
    fn alternates_are_strictly_improving_and_ranked() {
        let t = cycle_with_chord();
        let mut alts = Vec::new();
        // At node 1 toward 5: greedy is 1→0 (distance 1); the chord 1→4
        // (distance 1) is an equally-ranked strict improvement over
        // distance(1,5) = 2.
        t.alternate_arcs(1, 5, &mut alts);
        let here = t.distance(1, 5);
        let greedy = t.next_arc(1, 5).unwrap();
        for &a in &alts {
            assert_ne!(a, greedy);
            assert!(t.distance(t.arc_head(a), 5) < here);
        }
        assert!(!alts.is_empty(), "the chord gives node 1 an alternate");
    }

    #[test]
    fn bfs_distance_finds_chords() {
        let t = cycle_with_chord();
        assert_eq!(t.bfs_distance(0, 3), Some(3));
        // 0→1→4 via the chord beats the 4-hop ring walk.
        assert_eq!(t.bfs_distance(0, 4), Some(2));
        assert_eq!(t.bfs_distance(2, 2), Some(0));
    }
}
