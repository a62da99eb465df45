//! Kleinberg small-world lattice: a `dims`-dimensional circular grid
//! with `links` long-range contacts per node drawn from the harmonic law
//! `P(offset at distance ℓ) ∝ ℓ^{-alpha}`.
//!
//! At `alpha = dims` (the harmonic exponent) greedy routing achieves
//! Θ(log²n) expected hops — the small-world regime this subsystem exists
//! to measure (E28). The sampler is *exact*: it first draws the total
//! circular-L1 distance `ℓ` from the law weighted by the number of
//! lattice offsets at that distance, then draws a uniform offset vector
//! at exactly that distance digit by digit, using per-dimension
//! composition counts. Long links are directed (out only), matching
//! Kleinberg's model; lattice edges are bidirectional.
//!
//! Everything streams through [`CsrBuilder`] in node-id order: peak
//! memory is the finished CSR plus one node's scratch list.

use crate::csr::CsrBuilder;
use crate::embed::Embedding;
use crate::topo::SparseTopology;
use hyperroute_desim::SimRng;

/// Per-coordinate circular offset count: the number of signed offsets
/// `k ∈ {-(side-1)..side-1}` whose circular distance is exactly `k`
/// (1 for `k = 0`, 1 for the antipode of an even cycle, 2 otherwise).
#[inline]
fn coord_ways(k: u32, side: u32) -> u64 {
    if k == 0 || 2 * k == side {
        1
    } else {
        2
    }
}

/// `ways[j][ℓ]` = number of `j`-dimensional circular offset vectors at
/// total L1 distance exactly `ℓ` — the convolution of [`coord_ways`]
/// across dimensions. Rows `0..=dims`; row 0 is the delta at 0.
fn distance_ways(side: u32, dims: u32) -> Vec<Vec<u64>> {
    let per_dim = (side / 2) as usize;
    let mut ways: Vec<Vec<u64>> = Vec::with_capacity(dims as usize + 1);
    ways.push(vec![1u64]);
    for j in 1..=dims as usize {
        let prev = &ways[j - 1];
        let mut row = vec![0u64; per_dim * j + 1];
        for (l, slot) in row.iter_mut().enumerate() {
            let k_max = l.min(per_dim);
            let mut total = 0u64;
            for k in 0..=k_max {
                if let Some(&w) = prev.get(l - k) {
                    total += coord_ways(k as u32, side) * w;
                }
            }
            *slot = total;
        }
        ways.push(row);
    }
    ways
}

/// Exact harmonic-law offset sampler over the circular lattice.
struct HarmonicSampler {
    side: u32,
    dims: u32,
    /// Composition counts, rows `0..=dims` (see [`distance_ways`]).
    ways: Vec<Vec<u64>>,
    /// Inclusive prefix sums of each `ways` row: `prefix[j][ℓ] =
    /// Σ_{i ≤ ℓ} ways[j][i]`, so a digit's cumulative weight is O(1).
    prefix: Vec<Vec<u64>>,
    /// Cumulative `ways[dims][ℓ] · ℓ^{-alpha}` over `ℓ = 1..=D`
    /// (`cdf[i]` covers distance `i + 1`).
    cdf: Vec<f64>,
}

impl HarmonicSampler {
    fn new(side: u32, dims: u32, alpha: f64) -> HarmonicSampler {
        let ways = distance_ways(side, dims);
        let top = &ways[dims as usize];
        let mut cdf = Vec::with_capacity(top.len().saturating_sub(1));
        let mut acc = 0.0f64;
        for (l, &w) in top.iter().enumerate().skip(1) {
            acc += w as f64 * (l as f64).powf(-alpha);
            cdf.push(acc);
        }
        assert!(
            acc.is_finite() && acc > 0.0,
            "harmonic normaliser must be positive"
        );
        let prefix = ways
            .iter()
            .map(|row| {
                row.iter()
                    .scan(0u64, |acc, &w| {
                        *acc += w;
                        Some(*acc)
                    })
                    .collect()
            })
            .collect();
        HarmonicSampler {
            side,
            dims,
            ways,
            prefix,
            cdf,
        }
    }

    /// `Σ_{j=0..=k} coord_ways(j) · ways[rem − 1][ℓ − j]`: the summed
    /// weight of first digits `0..=k` when `rem` dimensions must absorb
    /// distance `ℓ` (requires `k ≤ ℓ`). Every `coord_ways` is 2 except at
    /// 0 and at an even side's antipode, which count once, so the sum is
    /// twice a prefix-sum difference minus those two terms.
    fn digit_weight_through(&self, rem: usize, l: usize, k: usize) -> u64 {
        let below = &self.ways[rem - 1];
        let prefix = &self.prefix[rem - 1];
        let at = |i: usize| below.get(i).copied().unwrap_or(0);
        let through = |i: usize| prefix[i.min(prefix.len() - 1)];
        let window = through(l) - if k < l { through(l - k - 1) } else { 0 };
        let antipode = self.side as usize / 2;
        let once = if self.side.is_multiple_of(2) && k >= antipode {
            at(l - antipode)
        } else {
            0
        };
        2 * window - at(l) - once
    }

    /// The first-digit distance `k` when `rem ≥ 2` dimensions must absorb
    /// distance `l`: digit `k` has weight `coord_ways(k) · ways[rem −
    /// 1][l − k]`, the weights sum to the shell count `ways[rem][l]`, and
    /// the chosen digit is the first whose cumulative weight exceeds one
    /// uniform draw below that count, found by bisection.
    fn pick_digit(&self, rem: usize, l: usize, rng: &mut SimRng) -> usize {
        let weights_total = self.ways[rem][l];
        debug_assert!(weights_total > 0, "distance always decomposable");
        let pick = rng.below(weights_total as usize) as u64;
        let (mut lo, mut hi) = (0usize, l.min((self.side / 2) as usize));
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.digit_weight_through(rem, l, mid) > pick {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Reference for [`HarmonicSampler::pick_digit`]: the same draw,
    /// inverted by a linear walk over the digit weights.
    #[cfg(test)]
    fn pick_digit_linear(&self, rem: usize, l: usize, rng: &mut SimRng) -> usize {
        let below = &self.ways[rem - 1];
        let weight =
            |k: usize| coord_ways(k as u32, self.side) * below.get(l - k).copied().unwrap_or(0);
        let k_max = l.min((self.side / 2) as usize);
        let weights_total: u64 = (0..=k_max).map(weight).sum();
        let mut pick = rng.below(weights_total as usize) as u64;
        for k in 0..=k_max {
            if pick < weight(k) {
                return k;
            }
            pick -= weight(k);
        }
        unreachable!("the pick lies below the weight total")
    }

    /// Draw one long-range contact for `node`: total distance `ℓ` from
    /// the harmonic CDF, then a uniform offset vector at that exact
    /// distance (digit-by-digit through `pick`, conditioned on the
    /// remaining dimensions being able to absorb the remaining distance),
    /// then signs.
    fn draw(&self, node: u64, rng: &mut SimRng, pick: DigitPicker) -> u64 {
        let total = *self.cdf.last().expect("at least one distance");
        let target = rng.uniform01() * total;
        let mut l_left = self.cdf.partition_point(|&c| c <= target) + 1;
        // Guard against u ~ 1.0 rounding past the final bucket.
        l_left = l_left.min(self.cdf.len());

        let side = self.side as u64;
        let mut dest = 0u64;
        let mut place = 1u64;
        let mut digits = node;
        for rem in (1..=self.dims as usize).rev() {
            let digit = digits % side;
            digits /= side;
            let k = if rem == 1 {
                // Last dimension absorbs whatever distance remains.
                l_left
            } else {
                pick(self, rem, l_left, rng)
            };
            l_left -= k;
            let offset = if k > 0 && coord_ways(k as u32, self.side) == 2 && rng.below(2) == 1 {
                side - k as u64 // negative direction
            } else {
                k as u64
            };
            dest += ((digit + offset) % side) * place;
            place *= side;
        }
        debug_assert_eq!(l_left, 0);
        dest
    }
}

/// How [`HarmonicSampler::draw`] chooses a first-digit distance.
type DigitPicker = fn(&HarmonicSampler, usize, usize, &mut SimRng) -> usize;

/// Generate a seeded Kleinberg small-world graph: a `dims`-dimensional
/// circular lattice of side `side` (bidirectional ±1 edges per
/// dimension) plus `links` directed long-range contacts per node under
/// `P(ℓ) ∝ ℓ^{-alpha}`. Greedy routes on the lattice's circular L1
/// metric.
///
/// Deterministic: identical inputs yield a byte-identical CSR.
pub fn small_world(side: u32, dims: u32, links: u32, alpha: f64, seed: u64) -> SparseTopology {
    build(side, dims, links, alpha, seed, HarmonicSampler::pick_digit)
}

/// [`small_world`] with the first-digit draw as a parameter, so tests can
/// build the same graph through the reference picker.
fn build(
    side: u32,
    dims: u32,
    links: u32,
    alpha: f64,
    seed: u64,
    pick: DigitPicker,
) -> SparseTopology {
    assert!(side >= 3, "side below 3 degenerates the circular lattice");
    assert!((1..=4).contains(&dims), "dims must be in 1..=4");
    let nodes = (side as u64)
        .checked_pow(dims)
        .and_then(|n| u32::try_from(n).ok())
        .expect("side^dims must fit the sparse node ceiling") as usize;

    let sampler = (links > 0).then(|| HarmonicSampler::new(side, dims, alpha));
    let mut rng = SimRng::new(seed);
    let mut builder = CsrBuilder::new(nodes, 2 * dims as usize + links as usize);
    let mut scratch: Vec<u32> = Vec::with_capacity(2 * dims as usize + links as usize);
    let side64 = side as u64;
    for node in 0..nodes as u64 {
        // Lattice edges: ±1 in each dimension, circularly.
        let mut place = 1u64;
        let mut digits = node;
        for _ in 0..dims {
            let digit = digits % side64;
            digits /= side64;
            let up = node - digit * place + ((digit + 1) % side64) * place;
            let down = node - digit * place + ((digit + side64 - 1) % side64) * place;
            scratch.push(up as u32);
            scratch.push(down as u32);
            place *= side64;
        }
        // Long-range contacts (directed out-links).
        if let Some(s) = &sampler {
            for _ in 0..links {
                scratch.push(s.draw(node, &mut rng, pick) as u32);
            }
        }
        builder.push_node(node as u32, &mut scratch);
    }

    SparseTopology::new(builder.finish(), Embedding::Lattice { side, dims })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperroute_topology::RoutingTopology;

    #[test]
    fn ways_tables_count_lattice_shells() {
        // 1-D cycle of 8: distances 0..=4 with the antipode single.
        let w = distance_ways(8, 1);
        assert_eq!(w[1], vec![1, 2, 2, 2, 1]);
        // 2-D: shell sizes must sum to side².
        let w2 = distance_ways(8, 2);
        assert_eq!(w2[2].iter().sum::<u64>(), 64);
        // Shell 1 of the 2-D torus has 4 nodes.
        assert_eq!(w2[2][1], 4);
    }

    #[test]
    fn pure_lattice_matches_torus_structure() {
        let t = small_world(5, 2, 0, 2.0, 1);
        assert_eq!(t.num_nodes(), 25);
        // Every node has exactly 4 lattice neighbours.
        assert_eq!(t.num_arcs(), 100);
        for v in 0..25 {
            assert_eq!(t.graph().degree(v), 4, "node {v}");
        }
        // Greedy always succeeds on the pure lattice.
        for (src, dst) in [(0u64, 24u64), (7, 13), (20, 3)] {
            let hops = t
                .greedy_walk(src, dst)
                .expect("lattice greedy never stalls");
            assert_eq!(hops, t.distance(src, dst));
        }
    }

    #[test]
    fn long_links_are_deterministic_and_nonself() {
        let a = small_world(8, 2, 2, 2.0, 42);
        let b = small_world(8, 2, 2, 2.0, 42);
        assert_eq!(a.graph(), b.graph());
        let c = small_world(8, 2, 2, 2.0, 43);
        assert_ne!(a.graph(), c.graph(), "seed must matter");
        // Degree ≥ lattice, ≤ lattice + links; no self-loops by builder.
        for v in 0..a.num_nodes() {
            let d = a.graph().degree(v);
            assert!((4..=6).contains(&d), "node {v} degree {d}");
            assert!(!a.graph().neighbors(v).contains(&(v as u32)));
        }
    }

    #[test]
    fn bisected_digit_matches_the_linear_walk_on_every_shell() {
        // Every (side parity, dims, remaining dims, distance) cell, 64
        // draws each.
        for side in [3u32, 4, 7, 8, 11, 16] {
            for dims in 2..=4u32 {
                let sampler = HarmonicSampler::new(side, dims, 2.0);
                for rem in 2..=dims as usize {
                    for l in 0..sampler.ways[rem].len() {
                        let seed = ((side as u64) << 32)
                            | ((dims as u64) << 16)
                            | (rem as u64) << 8
                            | l as u64;
                        let mut rng = SimRng::new(seed);
                        for _ in 0..64 {
                            let mut oracle = rng.clone();
                            let fast = sampler.pick_digit(rem, l, &mut rng);
                            let slow = sampler.pick_digit_linear(rem, l, &mut oracle);
                            assert_eq!(
                                fast, slow,
                                "case seed {seed:#x}: side {side} dims {dims} rem {rem} l {l}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bisected_sampler_builds_the_linear_sampler_csr() {
        for side in [5u32, 6, 9, 12] {
            for dims in 1..=4u32 {
                for links in 0..=3u32 {
                    let seed = ((side as u64) << 16) | ((dims as u64) << 8) | links as u64;
                    let fast = small_world(side, dims, links, dims as f64, seed);
                    let slow = build(
                        side,
                        dims,
                        links,
                        dims as f64,
                        seed,
                        HarmonicSampler::pick_digit_linear,
                    );
                    assert_eq!(
                        fast.graph(),
                        slow.graph(),
                        "case seed {seed:#x}: side {side} dims {dims} links {links}"
                    );
                }
            }
        }
    }

    #[test]
    fn harmonic_law_prefers_short_links() {
        // alpha = dims = 1 on a large cycle: short offsets dominate.
        let t = small_world(1001, 1, 1, 1.0, 7);
        let e = Embedding::Lattice {
            side: 1001,
            dims: 1,
        };
        let (mut short, mut long) = (0u32, 0u32);
        for v in 0..t.num_nodes() {
            for &h in t.graph().neighbors(v) {
                let d = e.metric(v as u64, h as u64);
                if d > 1.5 {
                    // A long link; half the cycle is "far".
                    if d <= 50.0 {
                        short += 1;
                    } else {
                        long += 1;
                    }
                }
            }
        }
        // Under ℓ^{-1}, P(ℓ ≤ 50) = H(50)/H(500) ≈ 0.63 — far above the
        // uniform 10%. Require a clear majority.
        assert!(
            short > long,
            "harmonic law should favour short links: {short} vs {long}"
        );
    }
}
