//! Exact banded angular index over the hub rows of a disk embedding.
//!
//! Metric greedy on a hyperbolic graph routes through hubs, and a hub's
//! CSR row holds thousands of neighbours spread around the whole disk.
//! Only the few that lie angularly close to the destination can beat the
//! hub itself, so for every row above [`HUB_DEGREE`] the index keeps the
//! row's heads sorted by (unit radius band, angle). A query bounds, per
//! band, the angular window outside which every head's greedy key is
//! provably larger than the best key found so far, and evaluates keys
//! only inside it. The result is the arc the full row scan returns,
//! bit for bit: the bound is widened past f64 rounding of both the keys
//! and the window, and ties still break to the lowest arc index (within
//! one id-sorted row, the lowest head id).

use crate::csr::SparseGraph;
use crate::embed::Embedding;
use std::f64::consts::{PI, TAU};

/// Rows above this out-degree are indexed; shorter rows are scanned,
/// which costs less than bounding a window per band.
const HUB_DEGREE: usize = 64;

/// Relative slack on the window bound. Keys carry an absolute rounding
/// error of a few ulps of `cosh r_v · cosh r_d`, and the window's cosine
/// threshold a few ulps of its two terms; 10⁻¹² is a safety factor of
/// over 100 on both.
const SLACK: f64 = 1e-12;

/// Bands of at most this many heads are scanned whole: bounding their
/// window costs more than evaluating their keys.
const SCAN_BAND: usize = 4;

/// Extra angle searched past `0` and `2π`: `f32` angles round up to
/// `2π` itself, which sits just past the period.
const WRAP_PAD: f64 = 1e-6;

/// The angular window of one band that can hold a head with key ≤ best.
enum Window {
    /// No head of the band can reach the best key.
    Empty,
    /// The bound is vacuous: scan the whole band.
    Full,
    /// Heads within this angular distance of the destination.
    Half(f64),
}

/// The hub rows of one disk-embedded graph, sorted by (band, angle).
#[derive(Clone, Debug)]
pub(crate) struct HubIndex {
    /// Indexed node ids, ascending.
    nodes: Vec<u32>,
    /// Unit radius bands `[b, b + 1)`, shared by every hub:
    /// `floor(max r) + 1` of them.
    bands: usize,
    /// Per hub, `bands + 1` offsets into `heads`: band `b` of hub slot
    /// `s` is `band_ptr[s·(bands+1) + b] .. band_ptr[s·(bands+1) + b + 1]`.
    band_ptr: Vec<u32>,
    /// Row heads, sorted by (band, angle, id) within each hub.
    heads: Vec<u32>,
    /// Each head's angle, parallel to `heads`.
    angle: Vec<f32>,
    /// Per band `[coth(b + 1), 1 / sinh b, cosh(b + 1)]`: the radius terms
    /// the window bound needs at the band's edges.
    edge: Vec<[f64; 3]>,
}

impl HubIndex {
    /// Index every row of `graph` above [`HUB_DEGREE`] under the
    /// placements `(r, theta)`; `None` when no row qualifies.
    pub(crate) fn build(graph: &SparseGraph, r: &[f32], theta: &[f32]) -> Option<HubIndex> {
        let nodes: Vec<u32> = (0..graph.num_nodes())
            .filter(|&v| graph.degree(v) > HUB_DEGREE)
            .map(|v| v as u32)
            .collect();
        if nodes.is_empty() {
            return None;
        }
        let bands = r.iter().fold(0.0f32, |m, &x| m.max(x)) as usize + 1;
        let total: usize = nodes.iter().map(|&v| graph.degree(v as usize)).sum();
        let mut band_ptr = Vec::with_capacity(nodes.len() * (bands + 1));
        let mut heads = Vec::with_capacity(total);
        let mut angle = Vec::with_capacity(total);
        let mut row: Vec<(usize, f32, u32)> = Vec::new();
        for &v in &nodes {
            row.clear();
            row.extend(
                graph
                    .neighbors(v as usize)
                    .iter()
                    .map(|&h| (r[h as usize] as usize, theta[h as usize], h)),
            );
            row.sort_unstable_by(|a, b| {
                a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2))
            });
            let mut next = 0;
            for b in 0..=bands {
                while next < row.len() && row[next].0 < b {
                    next += 1;
                }
                band_ptr.push((heads.len() + next) as u32);
            }
            heads.extend(row.iter().map(|e| e.2));
            angle.extend(row.iter().map(|e| e.1));
        }
        let edge = (0..bands)
            .map(|b| {
                let (lo, hi) = (b as f64, b as f64 + 1.0);
                [hi.cosh() / hi.sinh(), 1.0 / lo.sinh(), hi.cosh()]
            })
            .collect();
        Some(HubIndex {
            nodes,
            bands,
            band_ptr,
            heads,
            angle,
            edge,
        })
    }

    /// `node`'s hub slot, or `None` when its row is short enough to scan.
    #[inline]
    pub(crate) fn slot(&self, graph: &SparseGraph, node: u64) -> Option<usize> {
        if graph.degree(node as usize) <= HUB_DEGREE {
            return None;
        }
        let slot = self.nodes.binary_search(&(node as u32));
        Some(slot.expect("every row above HUB_DEGREE is indexed"))
    }

    /// Heap bytes held by the index.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        4 * (self.nodes.len() + self.band_ptr.len() + self.heads.len() + self.angle.len())
            + 24 * self.edge.len()
    }

    /// The greedy arc out of `node`, indexed at `slot`, toward `dest`:
    /// the full row scan's answer, i.e. the arc to `dest` if the row has
    /// one, else the neighbour with the least key strictly below
    /// `node`'s, ties to the lowest id.
    pub(crate) fn next_arc(
        &self,
        slot: usize,
        graph: &SparseGraph,
        embed: &Embedding,
        node: u64,
        dest: u64,
    ) -> Option<usize> {
        let Embedding::Disk { theta, trig, .. } = embed else {
            unreachable!("only disk embeddings are indexed");
        };
        let start = graph.out_range(node as usize).start;
        let row = graph.neighbors(node as usize);
        if let Ok(i) = row.binary_search(&(dest as u32)) {
            return Some(start + i);
        }
        let key = embed.key_to(dest);
        let [cd, sd, ..] = trig[dest as usize];
        let (coth_d, inv_sd) = (cd / sd, 1.0 / sd);
        let td = theta[dest as usize] as f64;
        let mut best = key.key(node);
        let mut best_head = None::<u32>;
        let stride = self.bands + 1;
        let ptr = &self.band_ptr[slot * stride..(slot + 1) * stride];
        // Inner bands first: they hold the other hubs, which lie close to
        // every destination, so `best` drops early and the outer bands'
        // windows shrink to a few heads or none.
        for b in 0..self.bands {
            let (lo, hi) = (ptr[b] as usize, ptr[b + 1] as usize);
            if lo == hi {
                continue;
            }
            let heads = &self.heads[lo..hi];
            let angles = &self.angle[lo..hi];
            let window = if heads.len() <= SCAN_BAND {
                Window::Full
            } else {
                self.window(b, cd, coth_d, inv_sd, best)
            };
            let mut visit = |h: u32| {
                let k = key.key(h as u64);
                if k <= best && (k < best || best_head.is_some_and(|bh| h < bh)) {
                    best = k;
                    best_head = Some(h);
                }
            };
            // The heads with angle in `[from, to]`: one bisection, then a
            // walk, since a window rarely holds more than a few heads.
            let within = |from: f64, to: f64| {
                let start = angles.partition_point(|&a| (a as f64) < from);
                (start..heads.len()).take_while(move |&i| angles[i] as f64 <= to)
            };
            match window {
                Window::Empty => {}
                Window::Full => heads.iter().for_each(|&h| visit(h)),
                Window::Half(w) => {
                    let (from, to) = (td - w, td + w);
                    within(from, to).for_each(|i| visit(heads[i]));
                    if from < WRAP_PAD {
                        within(from + TAU, f64::INFINITY).for_each(|i| visit(heads[i]));
                    }
                    if to > TAU - WRAP_PAD {
                        within(f64::NEG_INFINITY, to - TAU).for_each(|i| visit(heads[i]));
                    }
                }
            }
        }
        best_head.map(|h| {
            start
                + row
                    .binary_search(&h)
                    .expect("indexed heads come from the row")
        })
    }

    /// The window of band `b` that can hold a head whose key is at most
    /// `best`, for a destination with `cosh r_d = cd`, `coth r_d =
    /// coth_d` and `1 / sinh r_d = inv_sd`.
    ///
    /// A head at radius `r ∈ [b, b + 1)` and angular distance `Δ` has key
    /// `cosh r cosh r_d − sinh r sinh r_d cos Δ`, so key ≤ best needs
    /// `cos Δ ≥ coth r_d · coth r − best / (sinh r_d · sinh r)`, whose
    /// right side is at least `coth r_d · coth(b + 1) − best / (sinh r_d ·
    /// sinh b)` over the band. `best` is first raised past the keys'
    /// rounding error and the threshold then lowered past its own (by at
    /// least 10⁻¹², which widens the window by at least as much). At
    /// `b = 0` or `r_d = 0` a term is infinite and the threshold is −∞ or
    /// NaN: the whole band.
    fn window(&self, b: usize, cd: f64, coth_d: f64, inv_sd: f64, best: f64) -> Window {
        let [coth_hi, inv_sinh_lo, cosh_hi] = self.edge[b];
        let reach = best + SLACK * (1.0 + cosh_hi * cd);
        let t1 = coth_d * coth_hi;
        let t2 = reach * inv_sd * inv_sinh_lo;
        let cos_min = t1 - t2 - SLACK * (1.0 + t1 + t2);
        if cos_min.is_nan() || cos_min <= -1.0 {
            Window::Full
        } else if cos_min > 1.0 {
            Window::Empty
        } else {
            // `acos c ≤ 2 tan(acos(c) / 2) = 2 √((1 − c)/(1 + c))`: a
            // cheaper bound, tight for the narrow windows that dominate.
            // Its rounding is far inside the slack already taken off `c`.
            let w = 2.0 * ((1.0 - cos_min) / (1.0 + cos_min)).sqrt();
            if w >= PI {
                Window::Full
            } else {
                Window::Half(w)
            }
        }
    }
}
