//! Compressed sparse row adjacency: the materialised form every
//! generator streams into.
//!
//! A [`SparseGraph`] is two flat arrays — `row_ptr` (one offset per node,
//! plus a terminator) and `adj` (the concatenated, per-node-sorted
//! out-neighbour lists). The **dense arc index space** the engine routes
//! over is simply the position in `adj`: arc `a` has head `adj[a]` and
//! tail "the node whose row contains `a`" (a binary search over
//! `row_ptr`, used only on cold paths). Arc indices therefore cover
//! `0..num_arcs()` without gaps and are grouped by tail node — which is
//! exactly the layout the fault fallbacks' detour scans want, so the
//! core engine skips building its own counting-sort copy
//! (`RoutingTopology::out_arc_range`).

/// Node ceiling shared by every generator: `2^26` nodes keeps node ids
/// comfortably inside the engine's 32-bit arc routing words and bounds
/// a worst-case CSR at a few hundred MiB.
pub const MAX_SPARSE_NODES: usize = 1 << 26;

/// Arc ceiling: arc indices travel as `u32` — the CSR's row offsets, the
/// engine's arc choices and completion entries, the observers' hop
/// records — so they must stay below `2^32`; `2^31` keeps a factor-two
/// margin. (The engine's own per-arc state is one `u32` per arc, 8 GiB
/// at this ceiling, on top of the CSR's 8 GiB of heads.)
pub const MAX_SPARSE_ARCS: usize = 1 << 31;

/// A finished CSR adjacency. Immutable once built; byte-identical for
/// identical generator inputs (the determinism contract every generator
/// test pins).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseGraph {
    /// `row_ptr[v]..row_ptr[v + 1]` is node `v`'s slice of `adj`.
    row_ptr: Vec<u32>,
    /// Concatenated out-neighbour lists, sorted within each row.
    adj: Vec<u32>,
}

impl SparseGraph {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of directed arcs (the dense arc index space).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.adj.len()
    }

    /// The sorted out-neighbours of `node`.
    #[inline]
    pub fn neighbors(&self, node: usize) -> &[u32] {
        &self.adj[self.row_ptr[node] as usize..self.row_ptr[node + 1] as usize]
    }

    /// Dense arc range out of `node` (positions in `adj`).
    #[inline]
    pub fn out_range(&self, node: usize) -> std::ops::Range<usize> {
        self.row_ptr[node] as usize..self.row_ptr[node + 1] as usize
    }

    /// Head of arc `arc` — O(1), the hot accessor.
    #[inline]
    pub fn arc_head(&self, arc: usize) -> u32 {
        self.adj[arc]
    }

    /// Tail of arc `arc` — a binary search over `row_ptr`; cold paths
    /// only (report assembly, fault-mask validation).
    pub fn arc_tail(&self, arc: usize) -> u32 {
        debug_assert!(arc < self.adj.len());
        (self.row_ptr.partition_point(|&p| p as usize <= arc) - 1) as u32
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn degree(&self, node: usize) -> usize {
        (self.row_ptr[node + 1] - self.row_ptr[node]) as usize
    }

    /// The raw row-pointer array (determinism tests compare it directly).
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The raw adjacency array (determinism tests compare it directly).
    pub fn adj(&self) -> &[u32] {
        &self.adj
    }

    /// Build from an **undirected** edge list: every `(u, v)` pair
    /// materialises arcs `u→v` and `v→u`. Self-loops are dropped,
    /// duplicate edges are merged (the erased configuration model), and
    /// rows come out sorted. Consumes the edge list (it is sorted in
    /// place; peak memory is the edge list plus the CSR).
    pub fn from_undirected_edges(nodes: usize, edges: &mut Vec<(u32, u32)>) -> SparseGraph {
        assert!(
            nodes <= MAX_SPARSE_NODES,
            "too many nodes for a sparse graph"
        );
        // Normalise to (min, max), drop self-loops, dedup.
        edges.retain(|&(u, v)| u != v);
        for e in edges.iter_mut() {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
        }
        edges.sort_unstable();
        edges.dedup();
        assert!(
            edges.len() * 2 <= MAX_SPARSE_ARCS,
            "too many arcs for a sparse graph"
        );
        // Counting sort of both arc directions into rows.
        let mut row_ptr = vec![0u32; nodes + 1];
        for &(u, v) in edges.iter() {
            row_ptr[u as usize + 1] += 1;
            row_ptr[v as usize + 1] += 1;
        }
        for i in 0..nodes {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut cursor = row_ptr.clone();
        let mut adj = vec![0u32; edges.len() * 2];
        // Row `w` holds reverse heads `u < w` and forward heads `v > w`.
        // Filling every reverse arc before any forward arc puts the
        // smaller half first, and walking the (min, max)-sorted edge list
        // emits each half in ascending order, so rows come out sorted.
        for &(u, v) in edges.iter() {
            adj[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        for &(u, v) in edges.iter() {
            adj[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
        }
        let graph = SparseGraph { row_ptr, adj };
        debug_assert!(
            (0..nodes).all(|w| graph.neighbors(w).windows(2).all(|p| p[0] < p[1])),
            "CSR rows must be strictly increasing"
        );
        graph
    }
}

/// Streaming CSR builder for generators that emit nodes in id order
/// (the small-world lattice): per node, hand over the out-neighbour
/// scratch list; the builder sorts, dedups, strips self-loops and
/// appends. Peak memory is the growing CSR plus one node's scratch —
/// the "never hold more than CSR + frontier" contract.
#[derive(Debug)]
pub struct CsrBuilder {
    row_ptr: Vec<u32>,
    adj: Vec<u32>,
}

impl CsrBuilder {
    /// Start a builder expecting `nodes` nodes and roughly
    /// `arcs_per_node` out-arcs each (capacity hints only).
    pub fn new(nodes: usize, arcs_per_node: usize) -> CsrBuilder {
        assert!(
            nodes <= MAX_SPARSE_NODES,
            "too many nodes for a sparse graph"
        );
        let mut row_ptr = Vec::with_capacity(nodes + 1);
        row_ptr.push(0);
        CsrBuilder {
            row_ptr,
            adj: Vec::with_capacity(nodes.saturating_mul(arcs_per_node)),
        }
    }

    /// Append the next node's out-neighbours (nodes must be pushed in id
    /// order). The scratch list is sorted and deduped in place; entries
    /// equal to `node` (self-loops) are dropped.
    pub fn push_node(&mut self, node: u32, neighbors: &mut Vec<u32>) {
        debug_assert_eq!(node as usize + 1, self.row_ptr.len(), "push nodes in order");
        neighbors.sort_unstable();
        neighbors.dedup();
        neighbors.retain(|&v| v != node);
        self.adj.extend_from_slice(neighbors);
        assert!(
            self.adj.len() <= MAX_SPARSE_ARCS,
            "too many arcs for a sparse graph"
        );
        self.row_ptr.push(self.adj.len() as u32);
        neighbors.clear();
    }

    /// Finish the build.
    pub fn finish(self) -> SparseGraph {
        SparseGraph {
            row_ptr: self.row_ptr,
            adj: self.adj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sorts_dedups_and_strips_self_loops() {
        let mut b = CsrBuilder::new(3, 2);
        let mut scratch = vec![2u32, 1, 2, 0];
        b.push_node(0, &mut scratch);
        assert!(scratch.is_empty());
        scratch.extend([0u32, 2]);
        b.push_node(1, &mut scratch);
        b.push_node(2, &mut scratch);
        let g = b.finish();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.arc_tail(0), 0);
        assert_eq!(g.arc_tail(2), 1);
        assert_eq!(g.arc_head(3), 2);
    }

    #[test]
    fn undirected_edge_list_builds_symmetric_sorted_rows() {
        let mut edges = vec![(1u32, 0u32), (0, 2), (2, 1), (1, 2), (3, 3)];
        let g = SparseGraph::from_undirected_edges(4, &mut edges);
        // Self-loop (3,3) dropped, duplicate (2,1)/(1,2) merged.
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        for arc in 0..g.num_arcs() {
            let (t, h) = (g.arc_tail(arc), g.arc_head(arc));
            assert!(g.neighbors(h as usize).contains(&t), "arc {arc} asymmetric");
        }
    }
}
