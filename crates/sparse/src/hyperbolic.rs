//! Hyperbolic random graph (Krioukov et al.): nodes placed in the
//! native hyperbolic disk of radius `R = 2 ln n + radius_offset`, radii
//! drawn with density `∝ sinh(alpha·r)` (quasi-uniform at `alpha = 1`),
//! angles uniform; two nodes connect iff their hyperbolic distance is at
//! most `R`. The resulting degree law is a power law with exponent
//! `2·alpha + 1`, and greedy routing on the hyperbolic metric succeeds
//! with high probability at near-optimal stretch — the E29 story.
//!
//! Edge discovery runs in near-linear time via radial bands: nodes are
//! id-ordered by angle, bucketed into unit-width radius bands, and each
//! node scans every band through a **conservative angular window**
//! computed at the band's minimum radius. Since the connection threshold
//! angle `θ*(r_u, r_v)` is decreasing in `r_v` (for `r ≤ R`), the window
//! at `band_min` is a superset of the true one for every node in the
//! band — candidates inside the window are then checked with the exact
//! distance predicate, so the graph is exact, not approximate.

use crate::csr::SparseGraph;
use crate::embed::Embedding;
use crate::topo::SparseTopology;
use hyperroute_desim::SimRng;
use std::f64::consts::{PI, TAU};
use std::ops::RangeInclusive;

/// The disk-radius offsets [`hyperbolic`] accepts. A unit of offset
/// scales the mean degree by `e^{-1/2}`, so the range spans graphs about
/// 7× sparser to 7× denser than the canonical disk `R = 2 ln n`. Far
/// below it the graph approaches complete and the build turns quadratic
/// in `n`; far above it the generator allocates a band per unit of `R`.
pub const RADIUS_OFFSET_RANGE: RangeInclusive<f64> = -4.0..=4.0;

/// `(cosh r, sinh r)`: the hyperbolic terms of one radius, computed once
/// per node or band rather than once per candidate pair.
#[inline]
fn cosh_sinh(r: f64) -> (f64, f64) {
    (r.cosh(), r.sinh())
}

/// Threshold angle: the largest `Δθ` at which radii `(ru, rv)`, given as
/// their [`cosh_sinh`] terms, still connect, i.e. `cos θ* = (cosh ru ·
/// cosh rv − cosh R)/(sinh ru · sinh rv)`. Returns `PI` (full circle)
/// when every angle connects and a negative value when none does.
fn threshold_angle(ru: (f64, f64), rv: (f64, f64), cosh_big_r: f64) -> f64 {
    let denom = ru.1 * rv.1;
    let num = ru.0 * rv.0 - cosh_big_r;
    if denom <= f64::EPSILON {
        // One endpoint at (or at rounding distance of) the origin:
        // distance reduces to ru + rv ≤ R ⟺ num ≤ 0 up to rounding.
        return if num <= 0.0 { PI } else { -1.0 };
    }
    let c = num / denom;
    if c <= -1.0 {
        PI
    } else if c >= 1.0 {
        -1.0
    } else {
        c.acos()
    }
}

/// Generate a seeded hyperbolic random graph with `nodes` nodes, radial
/// density exponent `alpha > 0` and disk radius `R = 2 ln nodes +
/// radius_offset`, with the offset in [`RADIUS_OFFSET_RANGE`]. Greedy
/// routes on the exact hyperbolic distance. Nodes that land outside
/// everyone's threshold stay isolated — the engine surfaces those as
/// `DEAD_END` route outcomes.
///
/// Deterministic: identical inputs yield a byte-identical CSR.
pub fn hyperbolic(nodes: u32, alpha: f64, radius_offset: f64, seed: u64) -> SparseTopology {
    assert!(nodes >= 2, "need at least two nodes");
    assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
    assert!(
        RADIUS_OFFSET_RANGE.contains(&radius_offset),
        "radius_offset must lie in {RADIUS_OFFSET_RANGE:?}"
    );
    let n = nodes as usize;
    let big_r = (2.0 * (nodes as f64).ln() + radius_offset).max(1.0);
    let cosh_big_r = big_r.cosh();

    // Placement: r from the quasi-uniform CDF, θ uniform on [0, 2π).
    let mut rng = SimRng::new(seed);
    let cosh_ar = (alpha * big_r).cosh();
    let mut placed: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let r = ((1.0 + rng.uniform01() * (cosh_ar - 1.0)).acosh() / alpha).min(big_r);
            let theta = rng.uniform01() * TAU;
            (theta, r)
        })
        .collect();
    // Node ids in angular order: band sublists inherit θ-sortedness from
    // plain id order, enabling binary-searched angular windows.
    placed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let theta: Vec<f64> = placed.iter().map(|p| p.0).collect();
    let radius: Vec<f64> = placed.iter().map(|p| p.1).collect();
    drop(placed);
    let hyp: Vec<(f64, f64)> = radius.iter().map(|&r| cosh_sinh(r)).collect();

    // Unit-width radial bands; each holds its members in id (= θ) order.
    let nbands = (big_r.ceil() as usize).max(1);
    let band_width = big_r / nbands as f64;
    let band_of = |r: f64| ((r / band_width) as usize).min(nbands - 1);
    let mut bands: Vec<Vec<u32>> = vec![Vec::new(); nbands];
    for (v, &r) in radius.iter().enumerate() {
        bands[band_of(r)].push(v as u32);
    }
    let band_min: Vec<(f64, f64)> = (0..nbands)
        .map(|b| cosh_sinh(b as f64 * band_width))
        .collect();

    // Candidates inside `[lo, hi]` (θ-interval, no wrap) of one band.
    let in_window = |band: &[u32], lo: f64, hi: f64, out: &mut Vec<u32>| {
        let a = band.partition_point(|&v| theta[v as usize] < lo);
        let b = band.partition_point(|&v| theta[v as usize] <= hi);
        out.extend_from_slice(&band[a..b]);
    };

    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut cand: Vec<u32> = Vec::new();
    for u in 0..n {
        let (tu, (cu, su)) = (theta[u], hyp[u]);
        for (band, &min) in bands.iter().zip(&band_min) {
            if band.is_empty() {
                continue;
            }
            // Widest (superset) window for the band: evaluated at the
            // band's minimum radius, where θ* is maximal.
            let widest = threshold_angle((cu, su), min, cosh_big_r);
            if widest < 0.0 {
                continue;
            }
            cand.clear();
            if widest >= PI {
                cand.extend_from_slice(band);
            } else {
                let (lo, hi) = (tu - widest, tu + widest);
                if lo < 0.0 {
                    in_window(band, lo + TAU, TAU, &mut cand);
                    in_window(band, 0.0, hi, &mut cand);
                } else if hi > TAU {
                    in_window(band, lo, TAU, &mut cand);
                    in_window(band, 0.0, hi - TAU, &mut cand);
                } else {
                    in_window(band, lo, hi, &mut cand);
                }
            }
            for &v in &cand {
                // Each undirected edge once, via the lower endpoint.
                if (v as usize) <= u {
                    continue;
                }
                let (cv, sv) = hyp[v as usize];
                let exact = cu * cv - su * sv * (tu - theta[v as usize]).cos();
                if exact <= cosh_big_r {
                    edges.push((u as u32, v));
                }
            }
        }
    }

    let graph = SparseGraph::from_undirected_edges(n, &mut edges);
    let embed = Embedding::disk(
        radius.iter().map(|&r| r as f32).collect(),
        theta.iter().map(|&t| t as f32).collect(),
    );
    SparseTopology::new(graph, embed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::hyperbolic_distance;

    #[test]
    fn threshold_angle_is_decreasing_in_radius() {
        let big_r = 14.0f64;
        let cr = big_r.cosh();
        let ru = cosh_sinh(6.0);
        let mut prev = threshold_angle(ru, cosh_sinh(0.5), cr);
        for i in 1..28 {
            let rv = 0.5 * i as f64;
            let t = threshold_angle(ru, cosh_sinh(rv), cr);
            assert!(t <= prev + 1e-12, "θ* must shrink as rv grows (rv={rv})");
            prev = t;
        }
        // Near the origin everything within reach connects.
        assert_eq!(threshold_angle(cosh_sinh(1.0), cosh_sinh(0.0), cr), PI);
    }

    #[test]
    fn generated_edges_match_the_exact_predicate() {
        // Small enough to brute-force: every pair within distance R must
        // be an edge, every edge must be within distance R.
        let t = hyperbolic(256, 0.9, 0.0, 11);
        let (r, th) = match t.embedding() {
            Embedding::Disk { r, theta, .. } => (r.clone(), theta.clone()),
            _ => unreachable!("hyperbolic embeds in the disk"),
        };
        let big_r = 2.0 * 256f64.ln();
        let mut expected = 0usize;
        for u in 0..256usize {
            for v in (u + 1)..256 {
                // Recompute in f64 from the f32 stored coordinates so the
                // check matches what the metric sees.
                let d = hyperbolic_distance(r[u] as f64, th[u] as f64, r[v] as f64, th[v] as f64);
                // f32 storage rounds coordinates; skip knife-edge pairs.
                if (d - big_r).abs() < 1e-3 {
                    expected += usize::from(t.graph().neighbors(u).contains(&(v as u32)));
                    continue;
                }
                let connected = d < big_r;
                assert_eq!(
                    t.graph().neighbors(u).contains(&(v as u32)),
                    connected,
                    "pair ({u},{v}) at distance {d:.4} vs R={big_r:.4}"
                );
                expected += usize::from(connected);
            }
        }
        assert_eq!(t.graph().num_arcs(), expected * 2);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = hyperbolic(512, 0.8, 0.0, 99);
        let b = hyperbolic(512, 0.8, 0.0, 99);
        assert_eq!(a.graph(), b.graph());
        assert_ne!(
            a.graph(),
            hyperbolic(512, 0.8, 0.0, 100).graph(),
            "seed must matter"
        );
    }

    #[test]
    fn greedy_mostly_succeeds_on_a_dense_disk() {
        // alpha < 1 concentrates nodes near the centre and a negative
        // radius offset raises the mean degree → high greedy success.
        let t = hyperbolic(512, 0.65, -2.0, 5);
        let mut ok = 0;
        let total = 200;
        for i in 0..total {
            let (s, d) = ((i * 7) % 512, (i * 13 + 100) % 512);
            if s != d && t.greedy_walk(s as u64, d as u64).is_ok() {
                ok += 1;
            }
        }
        assert!(ok * 10 >= total * 8, "greedy success {ok}/{total} too low");
    }
}
